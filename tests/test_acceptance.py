"""Acceptance criteria.

Each test covers one numbered acceptance criterion and emits a single
``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``; ``pytest -v`` shows
the same verdict through the test outcome).  Criterion 3 checks that the
trust surface is monotone: nonincreasing in the delay ratio and
nondecreasing in the forwarding rate on the 0.01 grid, at 1e-9 tolerance.
"""
import math
import random
import statistics
import time

import pytest

from scfto.config import SimConfig
from scfto.fuzzy import FuzzyTrustEngine, type_reduce
from scfto.metrics import MetricsAccumulator, run_to_files, simulate
from scfto.network import NodeState, init_network
from scfto.outlier import detect_threshold
from scfto.phy import ChannelState, sample_channel_state
from scfto.protocol import head_action, run_round
from scfto.rng import StreamFactory
from scfto.trust import Outcome

from oracles import energy_ledger_error, reference_type_reduce


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def random_endpoint_list(rng: random.Random) -> tuple:
    n = rng.randint(9, 16)

    def side():
        xs = sorted(rng.random() for _ in range(n))
        lo, hi = [], []
        for _ in range(n):
            h = rng.random()
            lo.append(h * rng.uniform(0.05, 1.0))
            hi.append(h)
        lo_sum, hi_sum = sum(lo), sum(hi)
        return [(x, a / lo_sum, b / hi_sum) for x, a, b in zip(xs, lo, hi)]

    return side(), side()


def test_criterion_01_type_reduction_oracle():
    rng = random.Random(424242)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        wel = random_endpoint_list(rng)
        got = type_reduce(wel)
        want = reference_type_reduce(wel)
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    elapsed = time.perf_counter() - start
    verdict(1, "EIASC equals exhaustive switch-point search",
            worst < 1e-9 and elapsed < 5.0,
            f"worst |delta|={worst:.3g}, {elapsed:.2f}s for 1000 lists")


def test_criterion_02_rule1_hard_zero():
    engine = FuzzyTrustEngine()
    bad = 0
    for i in range(200):  # dfr = 0.000 .. 0.199
        dfr = i * 0.001
        for j in range(0, 101, 5):
            if engine.evaluate(j * 0.01, dfr) != 0.0:
                bad += 1
    verdict(2, "trust is exactly 0 whenever dfr < 0.2", bad == 0,
            f"{bad} nonzero cells")


def test_criterion_03_trust_monotonicity():
    engine = FuzzyTrustEngine()
    dfrs = [round(0.2 + 0.01 * i, 10) for i in range(81)]
    dfds = [round(0.01 * j, 10) for j in range(101)]
    grid = {(dfd, dfr): engine.evaluate(dfd, dfr)
            for dfd in dfds for dfr in dfrs}
    tol = 1e-9
    violations = 0
    worst = 0.0
    for di, dfd in enumerate(dfds):
        for ri, dfr in enumerate(dfrs):
            v = grid[(dfd, dfr)]
            if ri + 1 < len(dfrs):  # nondecreasing in dfr
                gap = v - grid[(dfd, dfrs[ri + 1])]
                if gap > tol:
                    violations += 1
                    worst = max(worst, gap)
            if di + 1 < len(dfds):  # nonincreasing in dfd
                gap = grid[(dfds[di + 1], dfr)] - v
                if gap > tol:
                    violations += 1
                    worst = max(worst, gap)
    verdict(3, "trust monotone in (dfd, dfr) on the 0.01 grid",
            violations == 0, f"{violations} violations, worst {worst:.3g}")


def test_criterion_04_channel_stationarity():
    config = SimConfig()
    streams = StreamFactory(13)
    draws = 100_000
    bad = sum(sample_channel_state(config.channel,
                                   streams.stream("channel", round_idx=r))
              is ChannelState.BAD for r in range(draws))
    freq = bad / draws
    verdict(4, "empirical bad-state frequency is 0.3 +/- 0.02",
            abs(freq - 0.3) < 0.02, f"freq={freq:.4f}")


def test_criterion_05_energy_ledger_and_crossover_distance():
    config = SimConfig(node_count=100, rounds=500, seed=21)
    state = None
    for _, state in simulate(config):
        pass
    err = energy_ledger_error(state)
    d0 = config.radio.d_0
    ok = err <= 1e-12 and abs(d0 - 87.706) <= 0.001
    verdict(5, "energy ledger balances; crossover distance matches",
            ok, f"ledger error={err:.3g}, d_0={d0:.4f} m")


def test_criterion_06_outlier_fixtures():
    params = SimConfig().outlier
    got_a = detect_threshold([0.9, 0.905, 0.91, 0.2], params)
    low = [0.10, 0.102, 0.104, 0.106, 0.108]
    high = [0.80, 0.802, 0.804, 0.806, 0.808]
    got_b = detect_threshold(low + high, params)
    verdict(6, "hand-traced outlier fixtures", got_a == 0.9 and got_b == 0.80,
            f"four-value fixture={got_a}, bimodal fixture={got_b}")


@pytest.mark.slow
def test_criterion_07_malicious_clusters_reach_zero():
    seeds = range(1, 21)
    passes = 0
    slowest = 0.0
    scores = []
    for seed in seeds:
        cfg = SimConfig(node_count=100, rounds=1500, seed=seed,
                        malicious_fraction=0.3)
        acc = MetricsAccumulator(cycle_len=cfg.cycle_len_rounds)
        start = time.perf_counter()
        for report, _ in simulate(cfg):
            acc.add(report)
        slowest = max(slowest, time.perf_counter() - start)
        last5 = acc.cycle_averages()[-5:]
        scores.append(sum(last5))
        passes += all(avg == 0.0 for avg in last5)
    verdict(7, "malicious clusters reach and hold 0 in >=80% of seeds",
            passes >= 16 and slowest < 60.0,
            f"{passes}/20 seeds, slowest {slowest:.1f}s")


@pytest.mark.slow
def test_criterion_08_attack_totals_grow_with_malicious_fraction():
    fractions = (0.1, 0.2, 0.3, 0.4, 0.5)
    seeds = range(1, 11)
    drop_means, drop_ses, delay_means, delay_ses = [], [], [], []
    for frac in fractions:
        drops, delays = [], []
        for seed in seeds:
            cfg = SimConfig(node_count=100, rounds=500, seed=seed,
                            malicious_fraction=frac)
            total_drop = total_delay = 0
            for report, _ in simulate(cfg):
                total_drop += report.drop_attacks
                total_delay += report.delay_attacks
            drops.append(total_drop)
            delays.append(total_delay)
        drop_means.append(statistics.mean(drops))
        drop_ses.append(statistics.stdev(drops) / math.sqrt(len(drops)))
        delay_means.append(statistics.mean(delays))
        delay_ses.append(statistics.stdev(delays) / math.sqrt(len(delays)))
    ok = True
    for means, ses in ((drop_means, drop_ses), (delay_means, delay_ses)):
        for i in range(len(fractions) - 1):
            slack = math.hypot(ses[i], ses[i + 1])
            if means[i + 1] < means[i] - slack:
                ok = False
    verdict(8, "drop/delay totals nondecreasing in malicious fraction", ok,
            f"drops={['%.0f' % m for m in drop_means]}, "
            f"delays={['%.0f' % m for m in delay_means]}")


def test_criterion_09_attack_rate_calibration():
    config = SimConfig()
    worst = 0.0
    for tier in (1, 2, 3):
        node = NodeState(id=0, position=(0.0, 0.0), energy_j=1.0, tier=tier)
        rng = random.Random(1000 + tier)
        draws = 100_000
        drops = delays = 0
        for _ in range(draws):
            fate, _ = head_action(node, rng, config)
            drops += fate is Outcome.DROPPED
            delays += fate is Outcome.FORWARDED_DELAYED
        worst = max(worst,
                    abs(drops / draws - tier * config.attack.p_sf),
                    abs(delays / draws - tier * config.attack.p_df))
    verdict(9, "per-tier drop/delay rates within 0.01 of k*p", worst < 0.01,
            f"worst |delta|={worst:.4f}")


def test_criterion_10_replay_determinism(tmp_path):
    cfg = SimConfig(node_count=100, rounds=100, seed=9, malicious_fraction=0.3)
    a, b = tmp_path / "a", tmp_path / "b"
    run_to_files(cfg, str(a))
    run_to_files(cfg, str(b))
    same = all((a / n).read_bytes() == (b / n).read_bytes()
               for n in ("rounds.csv", "summary.csv"))
    verdict(10, "equal seeds give byte-identical CSV outputs", same)
