"""Radio energy model and the two-state Markov channel."""
import random

import pytest

from scfto.config import ChannelParams, RadioParams, SimConfig
from scfto.network import init_network
from scfto.phy import ChannelState, overhear_energy, rx_energy, sample_channel_state, tx_energy
from scfto.protocol import run_round

from oracles import energy_ledger_error


RADIO = RadioParams()


def test_tx_energy_free_space_regime():
    # below d_0 the amplifier term is eps_fs * d^2
    bits, d = 3000, 50.0
    expected = bits * RADIO.e_elec + bits * RADIO.eps_fs * d ** 2
    assert tx_energy(RADIO, bits, d) == pytest.approx(expected, rel=1e-12)


def test_tx_energy_multipath_regime():
    bits, d = 3000, 120.0
    expected = bits * RADIO.e_elec + bits * RADIO.eps_amp * d ** 4
    assert tx_energy(RADIO, bits, d) == pytest.approx(expected, rel=1e-12)


def test_tx_energy_continuous_at_crossover():
    bits = 3000
    d0 = RADIO.d_0
    below = tx_energy(RADIO, bits, d0 * (1 - 1e-9))
    above = tx_energy(RADIO, bits, d0 * (1 + 1e-9))
    assert below == pytest.approx(above, rel=1e-6)
    # the crossover is exactly where the amplifier terms agree
    assert RADIO.eps_fs * d0 ** 2 == pytest.approx(RADIO.eps_amp * d0 ** 4, rel=1e-12)


def test_tx_energy_monotone_in_distance():
    bits = 300
    samples = [tx_energy(RADIO, bits, d) for d in range(0, 200, 5)]
    assert all(a <= b for a, b in zip(samples, samples[1:]))


def test_rx_energy_includes_aggregation():
    bits = 3000
    assert rx_energy(RADIO, bits) == pytest.approx(bits * (RADIO.e_elec + RADIO.e_da))


def test_overhear_energy_success_and_timeout():
    bits, dur = 3000, 2.0
    ok = overhear_energy(RADIO, dur, bits, success=True)
    assert ok == pytest.approx(dur * RADIO.e_m + bits * RADIO.e_h)
    # a missed packet costs the full listening window and no decode cost
    missed = overhear_energy(RADIO, dur, bits, success=False)
    assert missed == pytest.approx(RADIO.d_m_s * RADIO.e_m)


def test_channel_stationary_frequency():
    ch = ChannelParams(alpha_0=3.0, alpha_1=7.0)
    rng = random.Random(20240817)
    n = 100_000
    bad = sum(sample_channel_state(ch, rng) is ChannelState.BAD for _ in range(n))
    assert bad / n == pytest.approx(0.3, abs=0.02)


def test_channel_rounds_are_uncorrelated():
    ch = ChannelParams()
    rng = random.Random(7)
    n = 100_000
    xs = [1.0 if sample_channel_state(ch, rng) is ChannelState.BAD else 0.0
          for _ in range(n)]
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    lag1 = sum((xs[i] - mean) * (xs[i + 1] - mean) for i in range(n - 1)) / (n - 1)
    assert lag1 / var == pytest.approx(0.0, abs=0.01)


def test_energy_ledger_closes_over_a_run():
    cfg = SimConfig(node_count=30, rounds=120, seed=5)
    state = init_network(cfg)
    for r in range(cfg.rounds):
        run_round(state, r)
    assert energy_ledger_error(state) <= 1e-12


def test_dead_node_transmission_not_delivered():
    cfg = SimConfig(node_count=10, rounds=1, seed=3)
    state = init_network(cfg)
    node = state.nodes[0]
    state.debit(node, node.energy_j - 1e-7)
    paid_in_full = state.debit(node, 2.25e-4)
    assert not paid_in_full
    assert node.energy_j == 0.0
    assert not node.alive
    assert energy_ledger_error(state) <= 1e-12
    # a dead node pays nothing more, so the round engine debits it untested
    debited, deaths = state.total_debited_j, list(state.deaths)
    assert not state.debit(node, 1e-6)
    assert not state.debit(node, 0.0)
    assert (node.energy_j, state.total_debited_j, state.deaths) == (0.0, debited, deaths)
