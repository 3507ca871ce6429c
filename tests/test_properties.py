"""Whole-run invariants over small random configs, edges included.

The checks are the benchmark's own output checks (`bench/checks.py`),
imported rather than copied, run on every simulated run: the energy
ledger balances, trust values and thresholds lie in [0, 1], each final
threshold equals the brute-force detector, the trust surface is monotone,
and every round's clusters, heads and alive count are consistent.  A
replay of the same config must give equal reports.
"""
import sys
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from scfto.config import AttackParams, ElectionParams, OutlierParams, SimConfig
from scfto.network import init_network
from scfto.protocol import run_round

from oracles import election_params

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from checks import (check_energy, check_ranges, check_rounds,  # noqa: E402
                    check_thresholds, check_trust_surface)

# tier-3 heads saturate at 3*p_sf + 3*p_df = 1: drops and delays only
_saturated = st.floats(0.0, 1.0 / 3.0).map(lambda p_sf: AttackParams(p_sf, 1.0 / 3.0 - p_sf))


# 1 uJ to 10 mJ, log-uniform: nodes die within the run
_tiny_energies = st.floats(-6.0, -2.0).map(lambda e: 10.0 ** e)


@st.composite
def small_configs(draw):
    if draw(st.booleans()):
        # a network meant to die: tiny energies and p0_init above p_dt, so
        # many nodes are elected and broadcast across the field early on
        initial_energy_j = draw(_tiny_energies)
        election = draw(election_params(p0_above_p_dt=True))
    else:
        # full or tiny energies (a self-declared head spends nothing, so few
        # of these runs die out); the default election, short rotation
        # windows (p0_init above p_dt) and the eta extremes
        initial_energy_j = draw(st.one_of(st.just(1.5), _tiny_energies))
        election = draw(st.one_of(st.just(ElectionParams()), election_params()))
    return SimConfig(
        node_count=draw(st.integers(1, 15)),
        rounds=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**32)),
        malicious_fraction=draw(st.sampled_from((0.0, 0.3, 1.0))),
        initial_energy_j=initial_energy_j,
        force_channel=draw(st.sampled_from((None, "good", "bad"))),
        attack=draw(st.one_of(st.just(AttackParams()), _saturated)),
        outlier=OutlierParams(n_s=draw(st.sampled_from((60, 2)))),
        election=election,
    )


def simulate_reports(config):
    state = init_network(config)
    return state, [run_round(state, r) for r in range(config.rounds)]


@settings(max_examples=300, deadline=None)
@given(config=small_configs())
def test_runs_keep_their_invariants_and_replay(config):
    state, reports = simulate_reports(config)
    if reports[-1].alive_end == 0:
        event("dead network")
    errors = (check_energy(config, state, reports) + check_ranges(state)
              + check_thresholds(config, state) + check_trust_surface(state)
              + check_rounds(config, state, reports))
    assert errors == []
    assert simulate_reports(config)[1] == reports
