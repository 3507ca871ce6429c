"""Metric accumulation and machine-readable run outputs.

Each run emits `rounds.csv` (one row per round), `summary.csv` (one row per
run, including per-cycle malicious-cluster averages), and a `manifest.txt`
echoing the exact configuration for reproducibility.  Floating-point values
are printed with 9 significant digits so outputs are diff-stable.
"""
from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

from . import __version__
from .config import (KEY_TABLE, ConfigError, SimConfig, dump_config, load_config,
                     parse_config_text, read_config_file, read_key_values)
from .network import init_network
from .protocol import RoundReport, run_round

ROUNDS_HEADER = ("round,channel,n_heads,n_clusters,n_malicious_clusters,"
                 "drop_attacks,delay_attacks,packets_delivered,"
                 "energy_spent_j,deaths,alive_end")


def fmt(x: float) -> str:
    return format(x, ".9g")


@dataclass
class MetricsAccumulator:
    """Folds round reports into the headline run metrics."""

    cycle_len: int
    rounds_seen: int = 0
    total_drop_attacks: int = 0
    total_delay_attacks: int = 0
    total_packets: int = 0
    total_energy_j: float = 0.0
    first_death_round: int | None = None
    all_dead_round: int | None = None
    final_alive: int = 0
    per_round_malicious: list = field(default_factory=list)

    def add(self, report: RoundReport) -> None:
        if report.round_idx != self.rounds_seen:
            raise ValueError(f"out-of-order round report: expected "
                             f"{self.rounds_seen}, got {report.round_idx}")
        if report.malicious_cluster_count > len(report.clusters):
            raise ValueError("more malicious clusters than clusters")
        self.rounds_seen += 1
        self.total_drop_attacks += report.drop_attacks
        self.total_delay_attacks += report.delay_attacks
        self.total_packets += report.packets_delivered
        self.total_energy_j += report.energy_spent_j
        self.per_round_malicious.append(report.malicious_cluster_count)
        if report.deaths and self.first_death_round is None:
            self.first_death_round = report.round_idx
        if report.alive_end == 0 and self.all_dead_round is None:
            self.all_dead_round = report.round_idx
        self.final_alive = report.alive_end

    def cycle_averages(self) -> list:
        """Mean malicious-cluster count per round within each cycle."""
        out = []
        for start in range(0, self.rounds_seen, self.cycle_len):
            chunk = self.per_round_malicious[start: start + self.cycle_len]
            out.append(sum(chunk) / len(chunk))
        return out


def simulate(config: SimConfig):
    """Set the network up, then return an iterator that runs the rounds and
    yields (report, state) per round; a config `init_network` refuses
    raises here, before any round."""
    state = init_network(config)
    return ((run_round(state, r), state) for r in range(config.rounds))


def rounds_csv_row(report: RoundReport) -> str:
    return ",".join([
        str(report.round_idx),
        report.channel.value,
        str(len(report.heads)),
        str(len(report.clusters)),
        str(report.malicious_cluster_count),
        str(report.drop_attacks),
        str(report.delay_attacks),
        str(report.packets_delivered),
        fmt(report.energy_spent_j),
        ";".join(str(d) for d in report.deaths),
        str(report.alive_end),
    ])


def summary_header(n_cycles: int) -> str:
    cols = ["seed", "sweep_key", "sweep_value", "rounds", "node_count",
            "malicious_fraction", "first_death_round", "all_dead_round",
            "total_drop_attacks", "total_delay_attacks", "total_packets",
            "total_energy_j", "final_alive"]
    cols += [f"cycle_malicious_avg_{i + 1:02d}" for i in range(n_cycles)]
    return ",".join(cols)


def summary_row(config: SimConfig, acc: MetricsAccumulator,
                sweep_key: str = "", sweep_value: str = "") -> str:
    cells = [
        str(config.seed), sweep_key, sweep_value,
        str(acc.rounds_seen), str(config.node_count),
        fmt(config.malicious_fraction),
        "" if acc.first_death_round is None else str(acc.first_death_round),
        "" if acc.all_dead_round is None else str(acc.all_dead_round),
        str(acc.total_drop_attacks), str(acc.total_delay_attacks),
        str(acc.total_packets), fmt(acc.total_energy_j),
        str(acc.final_alive),
    ]
    cells += [fmt(v) for v in acc.cycle_averages()]
    return ",".join(cells)


def run_to_files(config: SimConfig, out_dir: str, *, sweep_key: str = "",
                 sweep_value: str = "", dump_trust: bool = False,
                 dump_outlier: bool = False) -> MetricsAccumulator:
    """Simulate one run and write rounds.csv, summary.csv, manifest.txt.

    Each row is written as its round ends.  The network is set up before
    `out_dir` is made, so a config `init_network` refuses leaves nothing
    behind."""
    rounds = simulate(config)
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(config, os.path.join(out_dir, "manifest.txt"))
    acc = MetricsAccumulator(cycle_len=config.cycle_len_rounds)
    with ExitStack() as files:
        def csv_file(name: str, header: str):
            fh = files.enter_context(_open(os.path.join(out_dir, name)))
            fh.write(header + "\n")
            return fh

        round_file = csv_file("rounds.csv", ROUNDS_HEADER)
        if dump_trust:
            trust_file = csv_file("trust.csv", "round,observer,observed,state,value,"
                                               "total,successes,delayed")
        if dump_outlier:
            outlier_file = csv_file("outlier.csv", "round,node,t_th,stable_rounds,converged")
        for report, state in rounds:
            acc.add(report)
            round_file.write(rounds_csv_row(report) + "\n")
            if dump_trust:
                for node in state.nodes:
                    for observed, ent in sorted(node.trust.entries.items()):
                        trust_file.write(",".join([
                            str(report.round_idx), str(node.id), str(observed),
                            "unknown" if ent.value is None else "known",
                            "" if ent.value is None else fmt(ent.value),
                            str(ent.counters.total_forwarding),
                            str(ent.counters.successes),
                            str(ent.counters.delayed)]) + "\n")
            if dump_outlier:
                for node in state.nodes:
                    outlier_file.write(",".join([
                        str(report.round_idx), str(node.id),
                        "" if node.tracker.last_t_th is None else fmt(node.tracker.last_t_th),
                        str(node.tracker.stable_rounds),
                        str(int(node.tracker.converged))]) + "\n")
    _write(os.path.join(out_dir, "summary.csv"),
           [summary_header(len(acc.cycle_averages())),
            summary_row(config, acc, sweep_key, sweep_value)])
    return acc


def write_manifest(config: SimConfig, path: str) -> None:
    with _open(path) as fh:
        fh.write(f"# scfto {__version__} run manifest\n")
        fh.write(f"code_version = {__version__}\n")
        fh.write(dump_config(config))


def _open(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write(path: str, lines: list) -> None:
    with _open(path) as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# sweep scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    config_path: str | None
    seeds: tuple
    sweep_key: str | None
    sweep_values: tuple
    output_dir: str

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("seeds", "seed list must be nonempty")
        if bool(self.sweep_values) != (self.sweep_key is not None):
            raise ConfigError("sweep_key", "sweep_key and sweep_values go together")
        if self.sweep_key is not None and self.sweep_key.lower() not in KEY_TABLE:
            # `code_version` too: a sweep of it would label runs it did not change
            raise ConfigError("sweep_key", f"{self.sweep_key!r} is not a configuration key")
        if self.sweep_key is not None and self.sweep_key.lower() == "seed":
            # a swept seed would overwrite each run's seed from `seeds`
            raise ConfigError("sweep_key", "seed cannot be swept; the seeds key sets the seeds")
        # a repeated item would name the same run directory twice
        for name, items in (("seeds", self.seeds), ("sweep_values", self.sweep_values)):
            if len(set(items)) != len(items):
                raise ConfigError(name, "each item may appear only once")


def parse_scenario_text(text: str) -> ScenarioSpec:
    config_path = None
    seeds: tuple = ()
    sweep_key = None
    sweep_values: tuple = ()
    output_dir = "out"
    for key, value in read_key_values(text):
        if key == "config":
            config_path = value
        elif key == "seeds":
            try:
                seeds = tuple(int(s) for s in value.split(","))
            except ValueError as exc:
                raise ConfigError(key, f"bad value {value!r} ({exc})") from exc
        elif key == "sweep_key":
            sweep_key = value
        elif key == "sweep_values":
            sweep_values = tuple(v.strip() for v in value.split(","))
        elif key == "output":
            output_dir = value
        else:
            raise ConfigError(key, "unknown scenario key")
    spec = ScenarioSpec(config_path=config_path, seeds=seeds,
                        sweep_key=sweep_key, sweep_values=sweep_values,
                        output_dir=output_dir)
    spec.validate()
    return spec


def load_scenario(path: str) -> ScenarioSpec:
    return parse_scenario_text(read_config_file(path))


def run_sweep(spec: ScenarioSpec, base: SimConfig | None = None) -> str:
    """Run every (sweep value, seed) combination; per-run outputs live in
    subdirectories and one top-level summary.csv collects all runs.

    Any config-file key can be swept.  Every swept value is parsed and
    checked first, so an unknown key or a bad value fails before anything
    is written; without sweep values the runs differ only by seed, so a
    base config `init_network` refuses fails in the first run, which
    writes nothing."""
    spec.validate()
    config = base if base is not None else SimConfig()
    if spec.config_path:
        config = load_config(spec.config_path, base=config)
    key = spec.sweep_key or ""
    runs = []
    for raw_value in spec.sweep_values or ("",):
        for seed in spec.seeds:
            cfg = replace(config, seed=seed)
            if spec.sweep_values:
                cfg = parse_config_text(f"{key} = {raw_value}", base=cfg)
            runs.append((f"run_{raw_value or 'base'}_{seed}", raw_value, cfg))
    rows = []
    for tag, raw_value, cfg in runs:
        acc = run_to_files(cfg, os.path.join(spec.output_dir, tag),
                           sweep_key=key, sweep_value=raw_value)
        rows.append((summary_row(cfg, acc, key, raw_value),
                     len(acc.cycle_averages())))
    # runs of different lengths have different cycle counts: pad the
    # shorter rows so every row matches the header
    n_cycles = max(n for _, n in rows)
    summary_path = os.path.join(spec.output_dir, "summary.csv")
    _write(summary_path, [summary_header(n_cycles)]
           + [row + "," * (n_cycles - n) for row, n in rows])
    return summary_path
