"""Output checks for one simulation, computed apart from the program.

Each check returns a list of error strings, empty when the output holds.
They read the run's final `SimState`, its `RoundReport`s and the text of
the CSV files it wrote, and test properties the method must have, or
recompute a result by brute force from its definition.
"""
from __future__ import annotations

import csv
import io
import itertools

from scfto.network import NORMAL
from scfto.outlier import detect_threshold
from scfto.trust import evidence

MONOTONE_TOL = 1e-12


def check_energy(config, state, reports) -> list:
    """N * E0 = energy left + sum of the per-round energy spent."""
    initial = config.node_count * config.initial_energy_j
    accounted = sum(n.energy_j for n in state.nodes) + sum(r.energy_spent_j
                                                           for r in reports)
    if abs(initial - accounted) > 1e-9 * initial:
        return [f"energy: {initial!r} J at start, {accounted!r} J accounted"]
    return []


def check_ranges(state) -> list:
    """Every trust value and every node's latest threshold lies in [0, 1]."""
    errors = []
    for node in state.nodes:
        for observed, ent in node.trust.entries.items():
            if ent.value is not None and not 0.0 <= ent.value <= 1.0:
                errors.append(f"trust {node.id}->{observed} = {ent.value!r}")
        t_th = node.tracker.last_t_th
        if t_th is not None and not 0.0 <= t_th <= 1.0:
            errors.append(f"threshold of node {node.id} = {t_th!r}")
    return errors


def brute_threshold(values, t_nbr: float, core_fraction: float):
    """The density threshold straight from its definition, in O(n^2).

    Neighbors are the other values at absolute distance strictly below
    t_nbr.  Core values have a neighbor count strictly above core_fraction
    of the maximum count.  The cluster starts at the largest core value
    (the largest value when none is core) and takes in every neighbor of
    a core member; the threshold is the cluster's minimum.
    """
    vals = list(values)
    n = len(vals)
    if n == 0:
        return None
    counts = [sum(1 for y in vals if abs(y - x) < t_nbr) - 1 for x in vals]
    cutoff = core_fraction * max(counts)
    core = [c > cutoff for c in counts]
    candidates = [i for i in range(n) if core[i]] or range(n)
    seed = max(candidates, key=lambda i: vals[i])
    member = [False] * n
    member[seed] = True
    frontier = [seed] if core[seed] else []
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if not member[j] and abs(vals[j] - vals[i]) < t_nbr:
                member[j] = True
                if core[j]:
                    frontier.append(j)
    return min(v for v, m in zip(vals, member) if m)


def check_thresholds(config, state, detect=detect_threshold) -> list:
    """`detect` on each node's final Known values equals the brute force."""
    params = config.outlier
    errors = []
    for node in state.nodes:
        values = node.trust.known_values()
        got = detect(values, params)
        want = brute_threshold(values, params.t_nbr, params.core_fraction)
        if got != want:
            errors.append(f"threshold of node {node.id}: {got!r}, "
                          f"brute force {want!r}")
    return errors


def check_trust_surface(state) -> list:
    """Over every (dfd, dfr) pair the final tables hold, trust is 0 below
    the bypass rate, lies in [0, 1], and is nonincreasing in dfd and
    nondecreasing in dfr."""
    engine = state.engine
    pairs = sorted({evidence(ent.counters)[::-1]
                    for node in state.nodes for ent in node.trust.entries.values()
                    if ent.counters.total_forwarding > 0})  # (dfd, dfr)
    trust = {p: engine.evaluate(*p) for p in pairs}
    errors = []
    bypass = engine.flc.dfr_bypass
    for (dfd, dfr), t in trust.items():
        if not 0.0 <= t <= 1.0:
            errors.append(f"trust({dfd!r}, {dfr!r}) = {t!r} outside [0, 1]")
        if dfr < bypass and t != 0.0:
            errors.append(f"trust({dfd!r}, {dfr!r}) = {t!r} below the bypass rate")
    for p, q in itertools.combinations(pairs, 2):
        # p sorts first, so p.dfd <= q.dfd: p dominates q when p.dfr >= q.dfr,
        # and q dominates p when the delay ratios tie and q.dfr is higher
        if p[1] >= q[1]:
            hi, lo = p, q
        elif p[0] == q[0]:
            hi, lo = q, p
        else:
            continue
        if trust[hi] < trust[lo] - MONOTONE_TOL:
            errors.append(f"trust not monotone: {hi} -> {trust[hi]!r}, "
                          f"{lo} -> {trust[lo]!r}")
    return errors


def check_rounds(config, state, reports) -> list:
    """Per round: clusters are disjoint and headed by heads, the malicious
    count and the alive count match recounts, and nothing attacks when no
    node is malicious."""
    tier = {n.id: n.tier for n in state.nodes}
    errors = []
    dead = 0
    alive_before = config.node_count
    for rep in reports:
        r = rep.round_idx
        heads = set(rep.heads)
        seen = set()
        for head, members in rep.clusters:
            if head not in heads:
                errors.append(f"round {r}: cluster head {head} is not a head")
            for m in (head, *members):
                if m in seen:
                    errors.append(f"round {r}: node {m} is in two clusters")
                seen.add(m)
            for m in members:
                if m in heads:
                    errors.append(f"round {r}: member {m} is a head")
        recount = sum(1 for head, _ in rep.clusters if tier[head] != NORMAL)
        if rep.malicious_cluster_count != recount:
            errors.append(f"round {r}: {rep.malicious_cluster_count} malicious "
                          f"clusters reported, {recount} recounted")
        dead += len(rep.deaths)
        if rep.alive_end != config.node_count - dead:
            errors.append(f"round {r}: alive_end {rep.alive_end}, "
                          f"{config.node_count - dead} after the deaths")
        if rep.alive_end > alive_before:
            errors.append(f"round {r}: alive count rose to {rep.alive_end}")
        alive_before = rep.alive_end
        if config.malicious_fraction == 0 and (rep.drop_attacks or rep.delay_attacks):
            errors.append(f"round {r}: attacks with no malicious node")
    return errors


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def check_summary(config, rounds_text: str, summary_text: str) -> list:
    """The summary row equals the fold of rounds.csv."""
    rows = _rows(rounds_text)
    summary = _rows(summary_text)
    if len(summary) != 1:
        return [f"summary.csv has {len(summary)} rows, expected 1"]
    s = summary[0]
    errors = []

    def expect(column, want):
        if s[column] != str(want):
            errors.append(f"summary {column} = {s[column]!r}, expected {str(want)!r}")

    expect("seed", config.seed)
    expect("node_count", config.node_count)
    expect("rounds", len(rows))
    for total, column in (("total_drop_attacks", "drop_attacks"),
                          ("total_delay_attacks", "delay_attacks"),
                          ("total_packets", "packets_delivered")):
        expect(total, sum(int(row[column]) for row in rows))
    expect("final_alive", rows[-1]["alive_end"] if rows else config.node_count)
    expect("first_death_round",
           next((row["round"] for row in rows if row["deaths"]), ""))
    expect("all_dead_round",
           next((row["round"] for row in rows if row["alive_end"] == "0"), ""))
    energy = sum(float(row["energy_spent_j"]) for row in rows)
    if abs(float(s["total_energy_j"]) - energy) > 1e-8 * max(energy, 1e-300):
        errors.append(f"summary total_energy_j = {s['total_energy_j']}, "
                      f"rounds.csv sums to {energy!r}")
    malicious = [int(row["n_malicious_clusters"]) for row in rows]
    cycle = config.cycle_len_rounds
    averages = [sum(malicious[i: i + cycle]) / len(malicious[i: i + cycle])
                for i in range(0, len(rows), cycle)]
    columns = [c for c in s if c.startswith("cycle_malicious_avg_")]
    if len(columns) != len(averages):
        errors.append(f"summary has {len(columns)} cycle averages, "
                      f"rounds.csv gives {len(averages)}")
    for column, want in zip(columns, averages):
        if abs(float(s[column]) - want) > 1e-8:
            errors.append(f"summary {column} = {s[column]!r}, rounds.csv gives {want!r}")
    if abs(float(s["malicious_fraction"]) - config.malicious_fraction) > 1e-12:
        errors.append(f"summary malicious_fraction = {s['malicious_fraction']}")
    return errors


def check_sweep(summary_text: str, values, seeds, run_summaries) -> list:
    """One top-level row per (value, seed), in that order, each equal to
    the run's own summary row and labelled with its malicious fraction."""
    rows = summary_text.splitlines()[1:]
    combos = [(v, s) for v in values for s in seeds]
    if len(rows) != len(combos):
        return [f"sweep summary has {len(rows)} rows, expected {len(combos)}"]
    errors = []
    for (value, seed), line, own in zip(combos, rows, run_summaries):
        row = next(csv.reader([line]))
        if row[0] != str(seed) or row[2] != value:
            errors.append(f"sweep row {row[:3]} where ({value}, {seed}) was due")
        if float(row[5]) != float(value):
            errors.append(f"sweep row ({value}, {seed}) has malicious_fraction {row[5]}")
        if line != own.splitlines()[1]:
            errors.append(f"sweep row ({value}, {seed}) differs from its run's summary")
    return errors


def check_run(config, state, reports, rounds_text: str, summary_text: str) -> list:
    """Every single-run check."""
    return (check_energy(config, state, reports) + check_ranges(state)
            + check_thresholds(config, state) + check_trust_surface(state)
            + check_rounds(config, state, reports)
            + check_summary(config, rounds_text, summary_text))
