"""Independent oracles that only tests use: the energy ledger balance of a
simulation state, an exhaustive type reducer to check EIASC against, the
sort-based head choice to check the k-minimum ranking against, the
membership argmax and election probability to check `classify_trust`
and `protocol.election_probability` against, and a walk over the
neighbour graph to check `outlier.detect_threshold` against.  Also the
election parameters the whole-run properties draw."""
import math

from hypothesis import strategies as st

from scfto.config import TRUST_LABELS, ElectionParams, OutlierParams
from scfto.fuzzy import NoEvidenceError
from scfto.network import NodeState, SimState


def energy_ledger_error(state: SimState) -> float:
    """Relative imbalance of initial energy vs (debits + remaining)."""
    initial = state.config.node_count * state.config.initial_energy_j
    remaining = sum(n.energy_j for n in state.nodes)
    return abs(initial - (state.total_debited_j + remaining)) / initial


def reference_type_reduce(endpoints: tuple) -> tuple:
    """Exhaustive switch-point search over the endpoint lists (left, right);
    the independent oracle for EIASC."""
    left, right = endpoints

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
    return min(quotients(left, 2, 1)), max(quotients(right, 1, 2))


def reference_choose_head(node: NodeState, heads: list, positions: list, state: SimState):
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
    return None


def reference_classify_trust(trust_sets: dict, value: float) -> str:
    """Label of the largest `T1TrustSet.membership` at `value`; of equal
    grades, the first in `TRUST_LABELS` (the lower trust)."""
    grades = [trust_sets[label].membership(value) for label in TRUST_LABELS]
    return TRUST_LABELS[grades.index(max(grades))]


def reference_election_probability(node: NodeState, state: SimState) -> float:
    """`protocol.election_probability` with the label from
    `reference_classify_trust` and the label -> rate map as a dict."""
    params = state.config.election
    if not node.head_history:
        return params.p0_init
    avg = 0
    for h in node.head_history:  # left to right, on every Python version
        avg += h
    avg /= len(node.head_history)
    rates = {"complete_trust": params.p_ct, "trust": params.p_t, "medium_trust": params.p_mt}
    p_x = rates.get(reference_classify_trust(state.engine.trust_sets, avg), params.p_dt)
    if node.e_max is None or node.e_max == node.e_min:
        return p_x
    deficit = (node.e_max - node.energy_j) / (node.e_max - node.e_min)
    return (1.0 - params.eta * min(1.0, max(0.0, deficit))) * p_x


def reference_detect_threshold(values: list, params: OutlierParams):
    """`outlier.detect_threshold` read from its docstrings as a walk over
    the neighbour graph, where two values are neighbours when they lie
    strictly closer than t_nbr.  A value is core when its neighbour count
    is strictly above core_fraction of the largest count.  The walk starts
    at the largest core value (the largest value when none is core), steps
    on only from core values, and the threshold is the least value it
    reaches; None when there are no values."""
    n = len(values)
    if n == 0:
        return None
    neighbours = [[j for j in range(n) if j != i and abs(values[i] - values[j]) < params.t_nbr]
                  for i in range(n)]
    counts = [len(nbrs) for nbrs in neighbours]
    core = [c > params.core_fraction * max(counts) for c in counts]
    start = max(range(n), key=lambda i: (core[i], values[i]))
    reached, frontier = {start}, [start]
    while frontier:
        i = frontier.pop()
        if core[i]:
            for j in neighbours[i]:
                if j not in reached:
                    reached.add(j)
                    frontier.append(j)
    return min(values[i] for i in reached)


_P_DT = ElectionParams().p_dt


def election_params(p0_above_p_dt: bool = False):
    """`ElectionParams` with p0_init below or above p_dt (up to 0.9, where
    the rotation floor is 2, its least), or only above it, and eta at 0,
    the default 0.4 or 0.99; the trust rates keep their defaults."""
    above = st.floats(_P_DT, 0.9, exclude_min=True)
    return st.builds(
        ElectionParams,
        p0_init=above if p0_above_p_dt else st.one_of(st.floats(0.01, _P_DT), above),
        eta=st.sampled_from((0.0, 0.4, 0.99)))
