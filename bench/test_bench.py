"""Tests of the benchmark: each output check passes on real output and fails
on a planted wrong one, and the metric names match BENCHMARK.json.

    python3 -m pytest bench
"""
import copy
import json
from dataclasses import replace

import pytest

import checks
import run
from scfto import metrics
from scfto.config import SimConfig
from scfto.outlier import detect_threshold
from scfto.trust import EvidenceCounters, TrustEntry

CONFIG = SimConfig(node_count=30, rounds=80, seed=3)


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    with run.Capture(metrics) as capture:
        metrics.run_to_files(CONFIG, str(out))
    (simulation,) = capture.runs
    return {"state": simulation["state"], "reports": simulation["reports"],
            "rounds": (out / "rounds.csv").read_text(encoding="utf-8"),
            "summary": (out / "summary.csv").read_text(encoding="utf-8")}


def two_cluster_round(reports):
    return next(i for i, r in enumerate(reports) if len(r.clusters) >= 2)


def test_checks_pass_on_real_output(sim):
    assert checks.check_run(CONFIG, sim["state"], sim["reports"],
                            sim["rounds"], sim["summary"]) == []


def test_energy_check_catches_a_changed_round(sim):
    reports = copy.deepcopy(sim["reports"])
    reports[5].energy_spent_j += 1e-6
    assert checks.check_energy(CONFIG, sim["state"], reports)


def test_range_check_catches_trust_above_one(sim):
    state = copy.deepcopy(sim["state"])
    node = next(n for n in state.nodes if n.trust.known_values())
    next(e for e in node.trust.entries.values() if e.value is not None).value = 1.5
    assert checks.check_ranges(state)


def test_range_check_catches_a_negative_threshold(sim):
    state = copy.deepcopy(sim["state"])
    state.nodes[0].tracker.last_t_th = -0.1
    assert checks.check_ranges(state)


def test_threshold_check_catches_a_shifted_threshold(sim):
    def shifted(values, params):
        t = detect_threshold(values, params)
        return None if t is None else t + 0.01
    assert checks.check_thresholds(CONFIG, sim["state"]) == []
    assert checks.check_thresholds(CONFIG, sim["state"], detect=shifted)


@pytest.mark.parametrize("values, want", [
    ([], None),
    ([0.4], 0.4),
    ([0.9, 0.905, 0.91, 0.2], 0.9),
    ([0.1, 0.5, 0.9], 0.9),  # nothing is core: the largest value
    ([0.07, 0.08], 0.07),  # 0.08 - 0.07 < 0.01 in floating point
])
def test_brute_threshold_follows_the_definition(values, want):
    assert checks.brute_threshold(values, t_nbr=0.01, core_fraction=0.8) == want


def test_trust_surface_check_catches_a_non_monotone_engine(sim):
    state = copy.deepcopy(sim["state"])
    assert checks.check_trust_surface(state) == []
    state.engine.evaluate = lambda dfd, dfr: dfd  # trust rising with delay
    assert any("not monotone" in e for e in checks.check_trust_surface(state))


def test_trust_surface_check_catches_trust_below_the_bypass_rate(sim):
    state = copy.deepcopy(sim["state"])
    # one forward out of ten attempts: dfr 0.1, below the bypass rate
    state.nodes[0].trust.entries[1] = TrustEntry(
        value=0.0, counters=EvidenceCounters(total_forwarding=10, successes=1))
    assert checks.check_trust_surface(state) == []
    state.engine.evaluate = lambda dfd, dfr: 0.5
    assert any("bypass" in e for e in checks.check_trust_surface(state))


def test_round_check_catches_a_member_in_two_clusters(sim):
    reports = copy.deepcopy(sim["reports"])
    rep = reports[two_cluster_round(reports)]
    (h0, m0), (h1, m1) = rep.clusters[:2]
    rep.clusters[1] = (h1, m1 + m0[:1])
    assert any("two clusters" in e
               for e in checks.check_rounds(CONFIG, sim["state"], reports))


def test_round_check_catches_a_member_that_is_a_head(sim):
    reports = copy.deepcopy(sim["reports"])
    rep = reports[two_cluster_round(reports)]
    (h0, m0), (h1, m1) = rep.clusters[:2]
    rep.clusters[0] = (h0, m0 + (h1,))
    assert any("is a head" in e
               for e in checks.check_rounds(CONFIG, sim["state"], reports))


def test_round_check_catches_a_headless_cluster(sim):
    reports = copy.deepcopy(sim["reports"])
    rep = reports[two_cluster_round(reports)]
    rep.heads.remove(rep.clusters[0][0])
    assert any("not a head" in e
               for e in checks.check_rounds(CONFIG, sim["state"], reports))


def test_round_check_catches_a_wrong_malicious_count(sim):
    reports = copy.deepcopy(sim["reports"])
    reports[10].malicious_cluster_count += 1
    assert checks.check_rounds(CONFIG, sim["state"], reports)


def test_round_check_catches_a_wrong_alive_count(sim):
    reports = copy.deepcopy(sim["reports"])
    reports[-1].alive_end += 1
    errors = checks.check_rounds(CONFIG, sim["state"], reports)
    assert any("after the deaths" in e for e in errors)
    assert any("rose" in e for e in errors)


def test_round_check_catches_attacks_without_malicious_nodes(sim):
    assert sum(r.drop_attacks + r.delay_attacks for r in sim["reports"]) > 0
    no_attackers = replace(CONFIG, malicious_fraction=0.0)
    assert any("no malicious node" in e
               for e in checks.check_rounds(no_attackers, sim["state"], sim["reports"]))


@pytest.mark.parametrize("column", ["total_packets", "total_drop_attacks",
                                    "total_energy_j", "final_alive",
                                    "cycle_malicious_avg_01"])
def test_summary_check_catches_a_changed_total(sim, column):
    header, row = sim["summary"].splitlines()
    cells = row.split(",")
    i = header.split(",").index(column)
    cells[i] = str(float(cells[i]) + 1)
    changed = "\n".join([header, ",".join(cells)]) + "\n"
    assert checks.check_summary(CONFIG, sim["rounds"], sim["summary"]) == []
    assert any(column in e for e in checks.check_summary(CONFIG, sim["rounds"], changed))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    values, seeds = ("0", "0.5"), (1, 2)
    spec = metrics.ScenarioSpec(config_path=None, seeds=seeds,
                                sweep_key="malicious_fraction",
                                sweep_values=values, output_dir=str(out))
    metrics.run_sweep(spec, base=SimConfig(node_count=12, rounds=10))
    own = [(out / f"run_{v}_{s}" / "summary.csv").read_text(encoding="utf-8")
           for v in values for s in seeds]
    return values, seeds, (out / "summary.csv").read_text(encoding="utf-8"), own


def test_sweep_check_passes_on_real_output(sweep):
    values, seeds, summary, own = sweep
    assert checks.check_sweep(summary, values, seeds, own) == []


def test_sweep_check_catches_a_missing_row(sweep):
    values, seeds, summary, own = sweep
    assert checks.check_sweep("\n".join(summary.splitlines()[:-1]), values, seeds, own)


def test_sweep_check_catches_a_mislabelled_row(sweep):
    values, seeds, summary, own = sweep
    lines = summary.splitlines()
    cells = lines[-1].split(",")
    cells[5] = "0.3"  # malicious_fraction of a 0.5 run
    lines[-1] = ",".join(cells)
    errors = checks.check_sweep("\n".join(lines), values, seeds, own)
    assert any("malicious_fraction" in e for e in errors)


def test_traced_pass_replays_the_untraced_one_and_names_every_metric():
    from tracing import Tracer
    tiny = run.Workload(node_count=20, rounds=20, seeds_per_pass=2,
                        sweep_values=("0", "0.3"))
    plain = run.run_pass("test-tiny", tiny, seed=1)
    tracer = Tracer()
    traced = run.run_pass("test-tiny", tiny, seed=1, tracer=tracer)
    assert plain["errors"] == traced["errors"] == []
    assert plain["digests"] == traced["digests"]
    layers = run.layer_metrics(tracer.layers(), tracer, traced)
    assert layers["protocol.rounds"][0] == 4 * 20
    assert layers["fuzzy.inferences"][0] > 0

    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = run.end_to_end_metrics(tiny, [plain], setups=[(0.0, 0.01)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in e2e.items()}
    assert all(value > 0 for value, _ in e2e.values())
    assert [m["name"] for m in spec["per_layer"]] == (
        list(layers) + ["trace.run_s", "trace.overhead_s"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        {k: unit for k, (_, unit) in layers.items()},
        **{"trace.run_s": "s", "trace.overhead_s": "s"})
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_host_speed_scales_each_interval_by_the_samples_around_it():
    host = run.HostSpeed()
    host.tick()
    host.tick()  # within SAMPLE_EVERY_S of the first: no second sample
    assert len(host.samples) == len(host.times) == 1 and host.spent > 0

    slow, reference = 2e-3 * run.REFERENCE_MS, 1e-3 * run.REFERENCE_MS
    host.times = [0.0, 0.1, 0.2, 10.0, 10.1]
    host.samples = [slow, slow, slow, reference, reference]
    assert host.scaled(0.05, 0.1) == pytest.approx(0.05)  # host at half speed
    assert host.scaled(10.0, 0.05) == pytest.approx(0.05)
    assert host.scaled(5.0, 0.1) == pytest.approx(0.05)  # no sample near: all of them

    tiny = run.Workload(node_count=10, rounds=20, seeds_per_pass=1)  # tail: p50
    passes = [{"run_s": 1.0, "setups": [(0.0, 0.1)], "rounds": [(0.1, 0.1), (10.0, 0.2)]}]
    scaled = run.end_to_end_metrics(tiny, passes, setups=[(10.0, 0.1)], host=host)
    # set-up and rounds take 0.4 s, which scale to 0.05 + 0.05 + 0.2
    assert scaled["run_s"][0] == pytest.approx(1.0 * 0.3 / 0.4)
    assert scaled["round_ms_p50"][0] == pytest.approx(125.0)  # rounds scale to 50 and 200 ms
    assert scaled["round_ms_tail"][0] == pytest.approx(50.0)  # nearest-rank p50
    assert scaled["setup_s"][0] == pytest.approx(0.075)  # median of 0.05 and 0.1
