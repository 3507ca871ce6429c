"""scfto benchmark: three workloads, host-time metrics and a layer trace.

    python3 bench/run.py --workload default --seed 1 --seconds 30 --trace 0

Runs whole passes of one workload against the library in `src/`, as many
as end within `--seconds` (at least one), checks every simulation's
outputs, and prints the metrics as the last line of standard output, one
JSON object.  `--trace 0` gives the end-to-end metrics, with every time
scaled to a reference host speed (see `HostSpeed`); `--trace 1` runs one
untraced pass, then traced passes, and gives the per-layer metrics.
Everything runs in this process, with no extra threads.  Outputs go to
`bench/out/`; see `bench/README.md`.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

MALICIOUS_FRACTIONS = ("0", "0.1", "0.2", "0.3", "0.4", "0.5")
SETUP_SECONDS = 2.0  # standalone set-ups before the first pass
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
REFERENCE_MS = 0.5  # median time of reference_work on the reference host
SAMPLE_EVERY_S = 0.025  # least time between two reference_work samples
HALF_WINDOW_S = 0.2  # samples this close to a timed interval set its speed


def reference_work() -> float:
    """A fixed pure-Python loop of the operations the simulator spends its
    time on (Mersenne Twister seeding and draws, dict updates, float maths,
    a sort); its speed is the host's speed."""
    acc = 0.0
    table: dict = {}
    for rep in range(12):
        rng = random.Random(0x5EED + rep)
        for i in range(96):
            x = rng.random()
            key = i & 15
            table[key] = table.get(key, 0.0) + x * x
            acc += math.sqrt(x)
        values = sorted(table.values())
        acc += values[len(values) // 2]
    return acc


class HostSpeed:
    """Samples `reference_work` between the timed sections of a run, at
    most once every SAMPLE_EVERY_S, so the samples span the same seconds as
    the timings they scale.  The host's speed moves by a third over seconds
    and by a fifth over minutes, in CPU time as well as wall time.  `scaled`
    reports a timed interval as it would read on a host where the reference
    loop takes REFERENCE_MS, from the median of the samples taken during the
    interval and within HALF_WINDOW_S of it."""

    def __init__(self):
        self.times: list = []  # midpoint of each sample, ascending
        self.samples: list = []  # seconds each sample took
        self.spent = 0.0  # seconds spent sampling
        self._last = -math.inf

    def tick(self) -> None:
        t0 = perf_counter()
        if t0 - self._last < SAMPLE_EVERY_S:
            return
        reference_work()
        self._last = perf_counter()
        self.times.append(0.5 * (t0 + self._last))
        self.samples.append(self._last - t0)
        self.spent += self._last - t0

    @property
    def reference_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)

    def scaled(self, start: float, elapsed: float) -> float:
        """`elapsed` seconds, timed from `start`, at the reference speed."""
        lo = bisect.bisect_left(self.times, start - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, start + elapsed + HALF_WINDOW_S)
        window = self.samples[lo:hi] or self.samples
        return elapsed * REFERENCE_MS / (1e3 * statistics.median(window))


@dataclass(frozen=True)
class Workload:
    node_count: int
    rounds: int
    seeds_per_pass: int
    sweep_values: tuple = ()  # malicious fractions, run through run_sweep

    def sim_seeds(self, seed: int) -> list:
        return [seed * self.seeds_per_pass + i for i in range(self.seeds_per_pass)]

    def base(self):
        from scfto.config import SimConfig
        return SimConfig(node_count=self.node_count, rounds=self.rounds)

    def runs(self, seed: int) -> list:
        """(output directory name, config) of each simulation of a pass, in
        the order the pass runs them; `run_sweep` names the directories."""
        base = self.base()
        if not self.sweep_values:
            return [(f"seed_{s}", replace(base, seed=s)) for s in self.sim_seeds(seed)]
        return [(f"run_{v}_{s}", replace(base, seed=s, malicious_fraction=float(v)))
                for v in self.sweep_values for s in self.sim_seeds(seed)]

    @property
    def simulations(self) -> int:
        """Simulations in one pass; each is one operation."""
        return self.seeds_per_pass * max(1, len(self.sweep_values))

    @property
    def rounds_per_pass(self) -> int:
        return self.rounds * self.simulations

    @property
    def tail_percentile(self) -> float:
        """Highest ladder percentile with at least ten rounds beyond it."""
        return next(p for p in TAIL_LADDER
                    if self.rounds_per_pass * (100.0 - p) / 100.0 >= 10.0)


WORKLOADS = {
    "default": Workload(node_count=100, rounds=1500, seeds_per_pass=4),
    "dense": Workload(node_count=400, rounds=50, seeds_per_pass=5),
    "sweep": Workload(node_count=100, rounds=50, seeds_per_pass=5,
                      sweep_values=MALICIOUS_FRACTIONS),
}

def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


class Capture:
    """Times `init_network` and `run_round` as `metrics` calls them, and
    keeps each simulation's state and reports for the output checks.  A
    `HostSpeed` is sampled before each call, outside its timing."""

    def __init__(self, metrics, host: HostSpeed | None = None):
        self.metrics = metrics
        self.host = host
        self.runs: list = []  # dicts: state, setup, reports, rounds

    def __enter__(self):
        init_network, run_round = self.metrics.init_network, self.metrics.run_round
        self._originals = (init_network, run_round)
        runs = self.runs
        tick = self.host.tick if self.host is not None else (lambda: None)

        def timed_init(config):
            tick()
            t0 = perf_counter()
            state = init_network(config)
            runs.append({"state": state, "setup": (t0, perf_counter() - t0),
                         "reports": [], "rounds": []})
            return state

        def timed_round(state, round_idx):
            tick()
            t0 = perf_counter()
            report = run_round(state, round_idx)
            elapsed = perf_counter() - t0
            run = runs[-1]
            run["rounds"].append((t0, elapsed))
            run["reports"].append(report)
            return report

        self.metrics.init_network, self.metrics.run_round = timed_init, timed_round
        return self

    def __exit__(self, *exc):
        self.metrics.init_network, self.metrics.run_round = self._originals


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def run_pass(name: str, workload: Workload, seed: int, tracer=None,
             host: HostSpeed | None = None) -> dict:
    """One pass: every simulation of the workload, outputs included; then
    the output checks and digests, outside the timed region.  `run_s`
    leaves out the time `host` spends sampling inside the pass."""
    import checks
    from scfto import metrics

    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    seeds = workload.sim_seeds(seed)
    runs_due = workload.runs(seed)
    configs = [config for _, config in runs_due]
    run_dirs = [out_dir / run_name for run_name, _ in runs_due]

    if tracer is not None:
        tracer.install()
    try:
        with Capture(metrics, host) as capture:
            sampling = host.spent if host is not None else 0.0
            t0 = perf_counter()
            if workload.sweep_values:
                spec = metrics.ScenarioSpec(config_path=None, seeds=tuple(seeds),
                                            sweep_key="malicious_fraction",
                                            sweep_values=workload.sweep_values,
                                            output_dir=str(out_dir))
                metrics.run_sweep(spec, base=workload.base())
            else:
                for config, run_dir in zip(configs, run_dirs):
                    metrics.run_to_files(config, str(run_dir))
            run_s = perf_counter() - t0
            if host is not None:
                run_s -= host.spent - sampling
    finally:
        if tracer is not None:
            tracer.uninstall()

    errors = []
    runs = capture.runs
    if len(runs) != len(configs):
        errors.append(f"{len(runs)} simulations ran, {len(configs)} expected")
    for config, run, run_dir in zip(configs, runs, run_dirs):
        rounds_text = (run_dir / "rounds.csv").read_text(encoding="utf-8")
        summary_text = (run_dir / "summary.csv").read_text(encoding="utf-8")
        errors += [f"{run_dir.name}: {e}" for e in
                   checks.check_run(config, run["state"], run["reports"],
                                    rounds_text, summary_text)]
    if workload.sweep_values:
        summary_files = [out_dir / "summary.csv"]
        errors += checks.check_sweep(
            summary_files[0].read_text(encoding="utf-8"), workload.sweep_values,
            seeds, [(d / "summary.csv").read_text(encoding="utf-8") for d in run_dirs])
    else:
        summary_files = [d / "summary.csv" for d in run_dirs]

    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    return {
        "run_s": run_s,
        "setups": [run["setup"] for run in runs],  # (start, seconds)
        "rounds": [t for run in runs for t in run["rounds"]],  # (start, seconds)
        "digests": {"rounds.csv": sha256_files(d / "rounds.csv" for d in run_dirs),
                    "summary.csv": sha256_files(summary_files)},
        "errors": errors,
        "trust_entries": sum(len(n.trust.entries) for run in runs
                             for n in run["state"].nodes),
        "csv_rows": sum(len(p.read_text(encoding="utf-8").splitlines()) - 1
                        for p in files if p.suffix == ".csv"),
        "output_bytes": sum(p.stat().st_size for p in files),
    }


def standalone_setups(workload: Workload, seed: int, host: HostSpeed) -> list:
    """Time `init_network` over the pass's configs, whole cycles, for
    SETUP_SECONDS: the host's speed drifts by a third over about a second,
    so the samples span several seconds."""
    from scfto.network import init_network

    configs = [config for _, config in workload.runs(seed)]
    samples = []
    started = perf_counter()
    while perf_counter() - started < SETUP_SECONDS:
        for config in configs:
            host.tick()
            t0 = perf_counter()
            init_network(config)
            samples.append((t0, perf_counter() - t0))
    return samples


def end_to_end_metrics(workload: Workload, passes: list, setups: list,
                       host: HostSpeed | None = None) -> dict:
    """End-to-end metrics of the untraced passes, medians over passes; each
    time is scaled to the reference speed when `host` is given.  A pass's
    `run_s` is scaled by the ratio of its set-up and round times, scaled,
    to the same times unscaled: they take nearly all of it.  `setups` holds
    (start, seconds) of the standalone set-ups."""
    scaled = host.scaled if host is not None else (lambda start, elapsed: elapsed)
    run_s, p50, tail = [], [], []
    for p in passes:
        timed = p["setups"] + p["rounds"]
        run_s.append(p["run_s"] * sum(scaled(*t) for t in timed)
                     / sum(elapsed for _, elapsed in timed))
        rounds = sorted(scaled(*t) for t in p["rounds"])
        p50.append(1e3 * statistics.median(rounds))
        tail.append(1e3 * percentile(rounds, workload.tail_percentile))
    setup_s = [scaled(*t) for t in setups + [t for p in passes for t in p["setups"]]]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "round_ms_p50": (statistics.median(p50), "ms"),
        "round_ms_tail": (statistics.median(tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(layers: dict, tracer, p: dict) -> dict:
    """Per-layer metrics of one traced pass: counts, self seconds, ratios."""

    def calls(*names):
        return sum(layers.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(layers.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(part, base):
        return part / base if base else 0.0

    energy = ("phy.tx_energy", "phy.rx_energy", "phy.overhear_energy")
    evaluations = calls("fuzzy.evaluate")
    hits = evaluations - tracer.bypasses - tracer.inferences
    merges = calls("trust.merge")
    detections = calls("outlier.detect")
    count, sec, frac = "count", "s", "ratio"
    return {
        "rng.streams": (calls("rng.stream"), count),
        "rng.stream_s": (self_s("rng.stream"), sec),
        "network.distance_calls": (calls("network.distance"), count),
        "network.distance_s": (self_s("network.distance"), sec),
        "network.debit_calls": (calls("network.debit"), count),
        "network.debit_s": (self_s("network.debit"), sec),
        "network.init_s": (self_s("network.init"), sec),
        "fuzzy.engine_init_s": (self_s("fuzzy.engine_init"), sec),
        "phy.energy_calls": (calls(*energy), count),
        "phy.energy_s": (self_s(*energy), sec),
        "fuzzy.evaluate_calls": (evaluations, count),
        "fuzzy.inferences": (tracer.inferences, count),
        "fuzzy.cache_hit_ratio": (ratio(hits, evaluations), frac),
        "fuzzy.evaluate_s": (self_s("fuzzy.evaluate"), sec),
        "fuzzy.classify_calls": (calls("fuzzy.classify"), count),
        "fuzzy.classify_s": (self_s("fuzzy.classify"), sec),
        "trust.merge_calls": (merges, count),
        "trust.merges_applied": (tracer.merges_applied, count),
        "trust.merge_applied_ratio": (ratio(tracer.merges_applied, merges), frac),
        "trust.merge_s": (self_s("trust.merge"), sec),
        "trust.events": (calls("trust.record_event"), count),
        "trust.direct_updates": (calls("trust.update_direct"), count),
        "trust.update_s": (self_s("trust.update_direct", "trust.record_event"), sec),
        "trust.known_values_calls": (calls("trust.known_values"), count),
        "trust.known_values_s": (self_s("trust.known_values"), sec),
        "trust.entries": (p["trust_entries"], count),
        "outlier.detect_calls": (detections, count),
        "outlier.values_scanned": (tracer.values_scanned, count),
        "outlier.detect_s": (self_s("outlier.detect"), sec),
        "outlier.repeat_inputs": (tracer.repeat_inputs, count),
        "outlier.repeat_ratio": (ratio(tracer.repeat_inputs, detections), frac),
        "protocol.rounds": (calls("protocol.run_round"), count),
        "protocol.round_self_s": (self_s("protocol.run_round"), sec),
        "protocol.choose_head_calls": (calls("protocol.choose_head"), count),
        "protocol.choose_head_s": (self_s("protocol.choose_head"), sec),
        "protocol.recommendation_items_s": (self_s("protocol.recommendation_items"), sec),
        "protocol.should_elect_s": (self_s("protocol.should_elect"), sec),
        "protocol.election_probability_s": (self_s("protocol.election_probability"), sec),
        "metrics.csv_rows": (p["csv_rows"], count),
        "metrics.output_bytes": (p["output_bytes"], "B"),
        "metrics.self_s": (self_s("metrics.run_to_files", "metrics.run_sweep"), sec),
    }


def print_layer_table(layers: dict) -> None:
    busy = sum(row[2] for row in layers.values())
    print(f"{'span':32s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s}")
    for name, (n, total, own) in sorted(layers.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:32s} {n:10d} {total:10.4f} {own:10.4f} "
              f"{100.0 * own / busy if busy else 0.0:6.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scfto" / "__init__.py").is_file():
        print(f"error: the scfto package is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scfto
    if Path(scfto.__file__).resolve().parent != (SRC / "scfto").resolve():
        print(f"error: scfto was imported from {scfto.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import Tracer

    workload = WORKLOADS[args.workload]
    print(f"workload {args.workload}: {workload}, simulation seeds "
          f"{workload.sim_seeds(args.seed)}, tail = p{workload.tail_percentile:g} "
          f"of {workload.rounds_per_pass} rounds per pass")
    started = perf_counter()
    host = HostSpeed()
    setups = standalone_setups(workload, args.seed, host)
    passes, traced = [], []
    attempted = failed = 0
    last_wall = 0.0  # seconds the last pass took, checks included

    def attempt(tracer=None):
        nonlocal attempted, failed, last_wall
        attempted += workload.simulations
        t0 = perf_counter()
        try:
            p = run_pass(args.workload, workload, args.seed, tracer,
                         None if args.trace else host)
        except Exception:
            traceback.print_exc()
            failed += workload.simulations
            return None
        finally:
            last_wall = perf_counter() - t0
        print(f"pass {len(passes) + len(traced) + 1}{' traced' if tracer else ''}: "
              f"run_s {p['run_s']:.4f}  rounds.csv {p['digests']['rounds.csv'][:16]}  "
              f"summary.csv {p['digests']['summary.csv'][:16]}  "
              f"checks {'ok' if not p['errors'] else len(p['errors'])}")
        for e in p["errors"][:20]:
            print(f"  check failed: {e}")
        return p

    def room_for_another() -> bool:
        """Whether one more pass, as long as the last, ends within --seconds."""
        return perf_counter() - started + last_wall <= args.seconds

    if args.trace:
        p = attempt()
        if p is not None:
            passes.append(p)
        while p is not None and (not traced or room_for_another()):
            tracer = Tracer()
            p = attempt(tracer)
            if p is not None:
                table = tracer.layers()
                p["layers"] = layer_metrics(table, tracer, p)
                p["table"] = table
                tracer.write(str(OUT / f"trace-{args.workload}"))
                traced.append(p)
            del tracer  # one pass of spans in memory at a time
    else:
        while not passes or room_for_another():
            p = attempt()
            if p is None:
                break
            passes.append(p)

    everything = passes + traced
    digests = {json.dumps(p["digests"], sort_keys=True) for p in everything}
    correct = bool(everything) and all(not p["errors"] for p in everything)
    if len(digests) > 1:
        print("replay digests differ between passes")
        correct = False
    if everything:
        for name, digest in everything[0]["digests"].items():
            print(f"sha256 {name} {digest}")

    metrics_out = {}
    if args.trace and traced and passes:
        counts = [{k: v for k, (v, unit) in p["layers"].items() if unit in ("count", "B")}
                  for p in traced]
        if any(c != counts[0] for c in counts):
            print("per-layer counts differ between traced passes")
            correct = False
        print_layer_table(traced[-1]["table"])
        for name, (value, unit) in traced[-1]["layers"].items():
            if unit not in ("count", "B"):  # times and ratios: median over passes
                value = statistics.median(p["layers"][name][0] for p in traced)
            metrics_out[name] = {"value": value, "unit": unit}
        trace_run_s = statistics.median(p["run_s"] for p in traced)
        metrics_out["trace.run_s"] = {"value": trace_run_s, "unit": "s"}
        metrics_out["trace.overhead_s"] = {
            "value": trace_run_s - statistics.median(p["run_s"] for p in passes),
            "unit": "s"}
    elif not args.trace and passes:
        print(f"host: reference_work median {host.reference_ms:.4f} ms over "
              f"{len(host.samples)} samples, reference {REFERENCE_MS} ms; unscaled:")
        for name, (value, unit) in end_to_end_metrics(workload, passes, setups).items():
            print(f"  {name:34s} {value:>16.6g} {unit}")
        metrics_out = {name: {"value": value, "unit": unit} for name, (value, unit)
                       in end_to_end_metrics(workload, passes, setups, host).items()}
    else:
        correct = False
    for name, m in metrics_out.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics_out}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, digests=everything[0]["digests"] if everything else {}),
                   indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
