"""N-scaling ladder: host time per round at 50, 100, 200 and 400 nodes.

    python3 bench/ladder.py [--rounds 100] [--seed 1]

Reference figures for the benchmark README, not a workload: one simulation
per size, 30 % malicious, in the same 100 x 100 m field, without outputs.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scfto.config import SimConfig  # noqa: E402
from scfto.metrics import simulate  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(f"{'nodes':>5s} {'run_s':>8s} {'ms/round p50':>13s} {'ms/round mean':>14s}")
    for n in (50, 100, 200, 400):
        config = SimConfig(node_count=n, rounds=args.rounds, seed=args.seed)
        times = []
        started = last = perf_counter()
        for _ in simulate(config):
            now = perf_counter()
            times.append(now - last)
            last = now
        print(f"{n:5d} {last - started:8.3f} {1e3 * statistics.median(times):13.2f} "
              f"{1e3 * statistics.fmean(times):14.2f}")


if __name__ == "__main__":
    main()
