"""Metric accumulation, file outputs, sweep scenarios, and the CLI."""
from dataclasses import replace

import pytest

from scfto import __version__
from scfto.cli import main
from scfto.config import ConfigError, SimConfig
from scfto.metrics import (MetricsAccumulator, ScenarioSpec, parse_scenario_text,
                           run_sweep, run_to_files, simulate)
from scfto.phy import ChannelState
from scfto.protocol import RoundReport


def report(idx, **kw):
    defaults = dict(round_idx=idx, channel=ChannelState.GOOD)
    defaults.update(kw)
    return RoundReport(**defaults)


# ------------------------------------------------------------- accumulator

def test_accumulator_totals_and_cycles():
    acc = MetricsAccumulator(cycle_len=2)
    acc.add(report(0, drop_attacks=1, delay_attacks=2, packets_delivered=5,
                   energy_spent_j=0.5, malicious_cluster_count=0,
                   clusters=[], alive_end=10))
    acc.add(report(1, drop_attacks=3, packets_delivered=5, energy_spent_j=0.25,
                   malicious_cluster_count=2, clusters=[(1, (2,)), (3, (4,))],
                   alive_end=10))
    acc.add(report(2, deaths=[7], alive_end=9))
    assert acc.rounds_seen == 3
    assert acc.total_drop_attacks == 4
    assert acc.total_delay_attacks == 2
    assert acc.total_packets == 10
    assert acc.total_energy_j == pytest.approx(0.75)
    assert acc.first_death_round == 2
    assert acc.all_dead_round is None
    assert acc.cycle_averages() == [1.0, 0.0]  # [mean(0,2), mean(0)]


def test_accumulator_rejects_out_of_order():
    acc = MetricsAccumulator(cycle_len=50)
    acc.add(report(0, alive_end=1))
    with pytest.raises(ValueError):
        acc.add(report(2, alive_end=1))


def test_accumulator_rejects_impossible_malicious_count():
    acc = MetricsAccumulator(cycle_len=50)
    with pytest.raises(ValueError):
        acc.add(report(0, malicious_cluster_count=1, clusters=[], alive_end=1))


def test_accumulator_records_network_death():
    acc = MetricsAccumulator(cycle_len=50)
    acc.add(report(0, deaths=[0, 1], alive_end=0))
    assert acc.first_death_round == 0
    assert acc.all_dead_round == 0


def test_simulate_yields_every_round():
    cfg = SimConfig(node_count=10, rounds=5, seed=1)
    rounds = [rep.round_idx for rep, _ in simulate(cfg)]
    assert rounds == [0, 1, 2, 3, 4]


# ------------------------------------------------------------ file outputs

def test_run_outputs_and_determinism(tmp_path):
    cfg = SimConfig(node_count=20, rounds=30, seed=11, malicious_fraction=0.3)
    a, b = tmp_path / "a", tmp_path / "b"
    run_to_files(cfg, str(a))
    run_to_files(cfg, str(b))
    for name in ("rounds.csv", "summary.csv", "manifest.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    header = (a / "rounds.csv").read_text().splitlines()[0]
    assert header.startswith("round,channel,")
    assert len((a / "rounds.csv").read_text().splitlines()) == 31


def test_different_seed_changes_rounds_csv(tmp_path):
    base = SimConfig(node_count=20, rounds=30, seed=11, malicious_fraction=0.3)
    other = SimConfig(node_count=20, rounds=30, seed=12, malicious_fraction=0.3)
    a, b = tmp_path / "a", tmp_path / "b"
    run_to_files(base, str(a))
    run_to_files(other, str(b))
    assert (a / "rounds.csv").read_bytes() != (b / "rounds.csv").read_bytes()


def test_optional_dumps(tmp_path):
    cfg = SimConfig(node_count=10, rounds=5, seed=1)
    run_to_files(cfg, str(tmp_path), dump_trust=True, dump_outlier=True)
    assert (tmp_path / "trust.csv").exists()
    assert (tmp_path / "outlier.csv").exists()


# ----------------------------------------------------------------- sweeps

def test_parse_scenario_text():
    spec = parse_scenario_text(
        "config = base.cfg\n"
        "seeds = 1,2,3\n"
        "sweep_key = malicious_fraction\n"
        "sweep_values = 0.1,0.2\n"
        "output = results  # trailing comment\n")
    assert spec.config_path == "base.cfg"
    assert spec.seeds == (1, 2, 3)
    assert spec.sweep_key == "malicious_fraction"
    assert spec.sweep_values == ("0.1", "0.2")
    assert spec.output_dir == "results"



def test_spaced_sweep_values_are_stripped(tmp_path):
    spec = parse_scenario_text("seeds = 1\nsweep_key = malicious_fraction\n"
                               "sweep_values = 0.1, 0.5\n",
                               default_output=str(tmp_path / "sw"))
    assert spec.sweep_values == ("0.1", "0.5")
    run_sweep(spec, base=SimConfig(node_count=5, rounds=2))
    assert (tmp_path / "sw" / "run_0.5_1" / "rounds.csv").exists()
    rows = (tmp_path / "sw" / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["0.1", "0.5"]

def test_scenario_requires_seeds():
    with pytest.raises(ConfigError):
        parse_scenario_text("sweep_key = rounds\nsweep_values = 5\n")


def test_bad_seed_list_is_a_config_error(tmp_path, capsys):
    for seeds in ("1, x", ""):
        with pytest.raises(ConfigError, match="seeds"):
            parse_scenario_text(f"seeds = {seeds}\n")
        spec_file = tmp_path / "sweep.spec"
        spec_file.write_text(f"seeds = {seeds}\n")
        assert main(["sweep", str(spec_file), "--out", str(tmp_path / "sw")]) == 2
        assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_scenario_sweep_key_and_values_go_together():
    with pytest.raises(ConfigError):
        parse_scenario_text("seeds = 1\nsweep_values = 0.1,0.5\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("seeds = 1\nsweep_key = rounds\n")


def test_scenario_rejects_unknown_sweep_key(tmp_path):
    spec = parse_scenario_text("seeds = 1\nsweep_key = bogus\nsweep_values = 1\n",
                               default_output=str(tmp_path / "sw"))
    with pytest.raises(ConfigError):
        run_sweep(spec)
    assert not (tmp_path / "sw").exists()  # raised before any simulation


def test_run_sweep_nested_key_and_bad_value(tmp_path):
    spec = ScenarioSpec(config_path=None, seeds=(1,), sweep_key="p_sf",
                        sweep_values=("0.05", "0.2"), output_dir=str(tmp_path / "sw"))
    run_sweep(spec, base=SimConfig(node_count=10, rounds=3))
    for value in ("0.05", "0.2"):
        manifest = (tmp_path / "sw" / f"run_{value}_1" / "manifest.txt").read_text()
        assert f"\np_sf = {value}\n" in manifest
    bad = replace(spec, sweep_values=("0.05", "1.5"), output_dir=str(tmp_path / "bad"))
    with pytest.raises(ConfigError):  # 1.5 is out of [0,1]
        run_sweep(bad, base=SimConfig(node_count=10, rounds=3))
    assert not (tmp_path / "bad").exists()


def test_run_sweep_layout(tmp_path):
    spec = ScenarioSpec(config_path=None, seeds=(1, 2), sweep_key="rounds",
                        sweep_values=("3", "4"),
                        output_dir=str(tmp_path / "sw"))
    base = SimConfig(node_count=10, rounds=3, seed=0)
    summary = run_sweep(spec, base=base)
    lines = open(summary).read().splitlines()
    assert len(lines) == 5  # header + 2 values x 2 seeds
    for value in ("3", "4"):
        for seed in (1, 2):
            d = tmp_path / "sw" / f"run_{value}_{seed}"
            assert (d / "rounds.csv").exists()
            assert (d / "manifest.txt").exists()


def test_sweep_summary_pads_shorter_runs(tmp_path):
    spec = ScenarioSpec(config_path=None, seeds=(1,), sweep_key="rounds",
                        sweep_values=("50", "150"), output_dir=str(tmp_path))
    run_sweep(spec, base=SimConfig(node_count=5))
    header, short, long = (tmp_path / "summary.csv").read_text().splitlines()
    assert header.endswith(",cycle_malicious_avg_03")
    assert [len(line.split(",")) for line in (header, short, long)] == [16] * 3
    own = (tmp_path / "run_50_1" / "summary.csv").read_text().splitlines()[1]
    assert short == own + ",,"


# -------------------------------------------------------------------- CLI

def test_cli_run_smoke(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--seed", "5", "--rounds", "10", "--out", str(out)])
    assert rc == 0
    assert (out / "rounds.csv").exists()
    assert "run complete: 10 rounds" in capsys.readouterr().out


def test_cli_run_with_config_file(tmp_path):
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text("node_count = 15\nrounds = 8\nseed = 3\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 0
    assert len((out / "rounds.csv").read_text().splitlines()) == 9


def test_cli_bad_config_is_error_code_2(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("node_count = -5\n")
    rc = main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("line,key", [
    ("e_0 = nan", "e_0"),
    ("t_nbr = nan", "t_nbr"),
    ("field_width_m = inf", "field_width_m"),
    ("tier_mix = nan,0.5,0.5", "tier_mix"),
    ("bs_x = nan", "bs_x"),
    ("eta = 1.0", "eta"),
    ("p_0 = 2", "p_0"),
])
def test_cli_bad_value_names_its_key_and_writes_nothing(tmp_path, capsys, line, key):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"node_count = 20\nrounds = 30\n{line}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert f"configuration error: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_lower_membership_above_upper_is_error_code_2(tmp_path, capsys):
    cfg_file = tmp_path / "fou.cfg"
    cfg_file.write_text("node_count = 5\nrounds = 2\nflc_dfd_low_umf = 0.5:0.0\n")
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
    assert "flc_dfd_low_lmf" in capsys.readouterr().err
    cfg_file.write_text("node_count = 5\nrounds = 2\n")
    spec_file = tmp_path / "sweep.spec"
    spec_file.write_text(f"config = {cfg_file}\nseeds = 1\nsweep_key = flc_dfd_low_umf\n"
                         "sweep_values = 0.5:1.0, 0.5:0.0\n")  # the first item is valid
    assert main(["sweep", str(spec_file), "--out", str(tmp_path / "sw")]) == 2
    assert "flc_dfd_low_lmf" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_config_file_is_checked_on_its_own(tmp_path, capsys):
    # a file is refused even where a command-line override or a sweep value
    # would make the run's config valid
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("node_count = 5\nrounds = 0\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_file), "--rounds", "2", "--out", str(out)]) == 2
    assert "configuration error: rounds: " in capsys.readouterr().err
    assert not out.exists()
    cfg_file.write_text("node_count = 5\nrounds = 2\np_ct = 0.2\n")
    spec_file = tmp_path / "sweep.spec"
    spec_file.write_text(f"config = {cfg_file}\nseeds = 1\nsweep_key = p_ct\n"
                         "sweep_values = 0.05\n")
    assert main(["sweep", str(spec_file), "--out", str(tmp_path / "sw")]) == 2
    assert "configuration error: p_ct: " in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_cli_uncovered_evidence_point_is_error_code_2(tmp_path, capsys):
    # no dfr UMF is above 0 at 0.3 or from 0.5 to 0.9: once a member's
    # forwarding rate lands there, no rule fires and inference has nothing
    # to reduce, so the config is refused before the run starts
    umfs = {"low": "0:1,0.2:1,0.3:0", "medium": "0.3:0,0.4:1,0.5:0", "high": "0.9:0,1:1"}
    cfg_file = tmp_path / "gap.cfg"
    cfg_file.write_text("rounds = 300\n" + "".join(
        f"flc_dfr_{label}_{kind} = {pts}\n" for label, pts in umfs.items()
        for kind in ("umf", "lmf")))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "configuration error: flc_dfr_low_umf: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_replays_its_manifest(tmp_path, capsys):
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text("node_count = 12\nrounds = 30\nseed = 4\n"
                        "tier_mix = 0.5, 0.25, 0.25\nflc_trust_trust = 0.6,0.8,0.95\n")
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["run", "--config", str(cfg_file), "--out", str(first)]) == 0
    manifest = first / "manifest.txt"
    assert main(["run", "--config", str(manifest), "--out", str(again)]) == 0
    for name in ("rounds.csv", "summary.csv", "manifest.txt"):
        assert (again / name).read_bytes() == (first / name).read_bytes()

    manifest.write_text(manifest.read_text().replace(
        f"code_version = {__version__}\n", "code_version = 0.0.0\n"))
    capsys.readouterr()
    assert main(["run", "--config", str(manifest), "--out", str(tmp_path / "o")]) == 2
    assert "code_version" in capsys.readouterr().err

def test_cli_sweep_smoke(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text("node_count = 10\nrounds = 3\n")
    spec_file = tmp_path / "sweep.spec"
    spec_file.write_text(f"config = {cfg_file}\nseeds = 1\n"
                         "sweep_key = rounds\nsweep_values = 2,3\n")
    out = tmp_path / "sw"
    rc = main(["sweep", str(spec_file), "--out", str(out)])
    assert rc == 0
    assert (out / "summary.csv").exists()


def test_cli_sweep_any_config_key(tmp_path, capsys):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text("node_count = 8\nrounds = 3\n")

    def sweep(lines, out):
        spec_file = tmp_path / "sweep.spec"
        spec_file.write_text(f"config = {cfg_file}\nseeds = 1,2\n{lines}")
        return main(["sweep", str(spec_file), "--out", str(out)])

    assert sweep("sweep_key = n_nch\nsweep_values = 1,3\n", tmp_path / "ok") == 0
    rows = (tmp_path / "ok" / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [
        ["1", "n_nch", "1"], ["2", "n_nch", "1"], ["1", "n_nch", "3"], ["2", "n_nch", "3"]]
    for bad in ("sweep_key = bogus\nsweep_values = 1\n",
                "sweep_key = n_nch\nsweep_values = 2,0\n"):  # n_nch must be >= 1
        assert sweep(bad, tmp_path / "bad") == 2
        assert not (tmp_path / "bad").exists()
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("lines", ["seeds = 1,1\n",
                                   "seeds = 1\nsweep_key = n_nch\nsweep_values = 1,1\n"])
def test_cli_sweep_refuses_repeated_items(tmp_path, capsys, lines):
    # each repeat would write the same run directory twice
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text("node_count = 8\nrounds = 3\n")
    spec_file = tmp_path / "sweep.spec"
    spec_file.write_text(f"config = {cfg_file}\n{lines}")
    assert main(["sweep", str(spec_file), "--out", str(tmp_path / "sw")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()
