"""Network set-up: what `init_network` hands each node."""
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from scfto.config import SimConfig
from scfto.network import NORMAL, apportion_tiers, init_network
from scfto.outlier import ConvergenceTracker
from scfto.rng import derive_seed

# three nonnegative ratios summing to 1 within the config's 1e-9
_tier_mixes = st.one_of(
    st.just((0.3, 0.4, 0.3)),
    st.tuples(*[st.integers(0, 10)] * 3).filter(any).map(
        lambda t: tuple(x / sum(t) for x in t)))


@st.composite
def setup_configs(draw):
    return SimConfig(
        node_count=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 2**64)),
        malicious_fraction=draw(st.one_of(st.sampled_from((0.0, 0.3, 1.0)),
                                          st.floats(0.0, 1.0))),
        tier_mix=draw(_tier_mixes),
        field_width_m=draw(st.floats(1.0, 1000.0)),
        field_height_m=draw(st.floats(1.0, 1000.0)),
        initial_energy_j=draw(st.floats(1e-6, 10.0)),
    )


@settings(max_examples=200, deadline=None)
@given(config=setup_configs())
def test_each_node_gets_its_draws_its_tier_and_its_own_state(config):
    nodes = init_network(config).nodes
    n = config.node_count
    assert [node.id for node in nodes] == list(range(n))

    # the deploy stream is keyed (seed, "deploy") with no node or round
    deploy = random.Random(derive_seed(config.seed, "deploy", -1, -1))
    for node in nodes:
        x = deploy.uniform(0.0, config.field_width_m)
        y = deploy.uniform(0.0, config.field_height_m)
        assert [c.hex() for c in node.position] == [x.hex(), y.hex()]

    malicious = int(config.node_count * config.malicious_fraction + 0.5)
    tiers = Counter(node.tier for node in nodes)
    assert tiers[NORMAL] == n - malicious
    assert tuple(tiers[t] for t in (1, 2, 3)) == apportion_tiers(malicious, config.tier_mix)

    for node in nodes:
        assert node.head_history == []
        assert node.trust.owner == node.id and node.trust.entries == {}
        assert node.tracker == ConvergenceTracker()
        assert (node.energy_j, node.p_ch) == (config.initial_energy_j,
                                             config.election.p0_init)
        assert (node.rounds_since_head, node.alive, node.e_max, node.e_min) == (
            None, True, None, None)
    for part in ("head_history", "trust", "tracker"):
        assert len({id(getattr(node, part)) for node in nodes}) == n, part
