"""Golden digests: refactors and speedups must keep every output byte-identical.

Each config covers an edge of the simulator; the SHA-256 digests of its five
output files were recorded once and must not be edited.  A failing digest
means the change altered what the simulator writes.
"""
import hashlib
from dataclasses import replace

import pytest

from scfto.config import AttackParams, FLCConfig, OutlierParams, SimConfig
from scfto.metrics import ScenarioSpec, run_sweep, run_to_files

BASE = SimConfig(node_count=30, rounds=200, seed=3)

# narrower dfr LMFs leave evidence points where every lower firing grade
# is 0, so the controller falls back to the upper grades (17 of 57
# inferences)
NARROW_DFR = FLCConfig(dfr_medium_lmf=((0.45, 0.0), (0.5, 1.0), (0.55, 0.0)),
                       dfr_high_lmf=((0.75, 0.0), (0.9, 1.0), (1.0, 1.0)))

CONFIGS = {
    "one_node": replace(BASE, node_count=1),
    "no_attackers": replace(BASE, malicious_fraction=0.0),
    "all_attackers": replace(BASE, malicious_fraction=1.0),
    "tier3_saturated": replace(BASE, attack=AttackParams(p_sf=0.25, p_df=1 / 12)),
    "good_channel": replace(BASE, force_channel="good"),
    "bad_channel": replace(BASE, force_channel="bad"),
    "dying": replace(BASE, initial_energy_j=0.004),  # every node dead by round 71
    "converging": replace(BASE, outlier=OutlierParams(n_s=5)),
    "lower_grades_zero": replace(BASE, trust_flc=NARROW_DFR),
}

FILES = ("rounds.csv", "summary.csv", "trust.csv", "outlier.csv", "manifest.txt")

GOLDEN = {
    "all_attackers": {
        "rounds.csv": "b8e9f85ef1d998e1952fb96fd45ef673d6d65ff2f526de0387bf7175243647ce",
        "summary.csv": "9e66552b6eacc76c53f5d77ea72331005cc6c51d0953329561bf85a3ddea2e3c",
        "trust.csv": "8ca7acaa33d1064c94a59fdc969fe045db3d17fccf5c7d234888243ef8bb63c3",
        "outlier.csv": "6841baf50a21461a6ac1bdfe7dce2d6eb2879d606f08a0fec4faba238d39d5a9",
        "manifest.txt": "545dbe8bbb983dd13d86a67673ccfd39a38b7c9e81eeb29e6943779989fdd84a",
    },
    "bad_channel": {
        "rounds.csv": "3ac2d7a4d25611fad0f871d0da7a7e24be527fb7f01c65b2c7b60ca1521f3302",
        "summary.csv": "a8c74622550895926937e1532b38712e7ef20e71abda9c0621ce836e59082092",
        "trust.csv": "cd6c585de7374eadb152ce39945ef14577d7e920cda11a43053be09de6c06edb",
        "outlier.csv": "1947aa01bf7b6f88c880834cfa1f3168b1f4859d4874df7e650b2496d34d6557",
        "manifest.txt": "e8cbc96e43d5ce9333511aade68b18b9c0a0c7ac3905b1a71b85a0ff1e26ec7c",
    },
    "converging": {
        "rounds.csv": "bd0d1adedb9538ed1d8d671c99142c4b9cdbd43aebdec153ffb10561ff0d3ce1",
        "summary.csv": "33b91d6070c49ac4c691687a7f3e367922df1a2889283dbb0020019aacf2979c",
        "trust.csv": "40062eef74d87e1fc4c65f223755e76a545fb2a3eae15989032a24beb283e7c3",
        "outlier.csv": "06a5aea6cf1b72819daad4a1f5a2befe6df639c78d1f9153d7a4ed6d0303a554",
        "manifest.txt": "64b2951af8f711617c6a37a046d06f0914dfec127a5bca65cc7bf2c54d534666",
    },
    "dying": {
        "rounds.csv": "9507dc8f6589deba85cdb8f7c5164f3ab4eafaef856f172dbe1dd37ed0101a42",
        "summary.csv": "7fcb11c18673eb0b4bc19783bd206e6a1b0846a09a9d91b2033c4e20167e83bb",
        "trust.csv": "409860fc3eb2cfaa79177f6e00dbc84d8517f70d983b7cc6ff7d4e676bcf5fdb",
        "outlier.csv": "0b5466adcfbd44886bb5aac2da1bd6ccfefec275ba9846a9aa98c948d33347ee",
        "manifest.txt": "d128794d10cb55c31698692a21b0a9fe0fdd757d9a3de751ca5bf9d4d647bde2",
    },
    "good_channel": {
        "rounds.csv": "5979b7698b615dfd9c5a8b72bd4ad93fb6b64771085b7a4319bdb03b6addcdf8",
        "summary.csv": "8af670278238cf81645aaf75d81ee1f7444863a91ca70db8ae09dbc1b6737956",
        "trust.csv": "6ef44cd49eb9878821d9ae5e3285d4c9303d82f673066465c292970e5082c0ff",
        "outlier.csv": "8dd34583baebaaf79ee78b1d6d84aee5a47188238e4c5d0ccca0272ae7014337",
        "manifest.txt": "bf03de483368e260f2da8cb0e6eb03e0dce6cb9316e1fa795376fa665a2facc0",
    },
    "lower_grades_zero": {
        "rounds.csv": "1c03d5494d979a78e14bff64e6d4a346b431aaf4515784cf8f4efd34a5f6c4a2",
        "summary.csv": "792a8a5796c00668f6bd62648212de3e6b4d7c2d2ef4da0fcf0f7ed698e7e4dc",
        "trust.csv": "32ffd0367497fa9c901609c813e7d6dec11f0013c18c0f29597f66bee34934d3",
        "outlier.csv": "698273caf0805437d21cd55a216a5b885501751ae88555497874c4865e39c563",
        "manifest.txt": "a4135d31f343dfdc9d45863918ab61b8e32ed0eaa90d4ed876b55b21608808ed",
    },
    "no_attackers": {
        "rounds.csv": "b7f17d04f75f6e4dd30a13074b29b6791b18c43112ecbbbb058ad0c25bd4a1fb",
        "summary.csv": "431992679c3a7c78db5ed3028afa6fac9e26d74acfdd3d62d52a36196251ff43",
        "trust.csv": "86764fbb55fc39784d9d165c049bcddcfd691d516a901af3729df781c3e63310",
        "outlier.csv": "52ca3c11c2700634aab45373698b73f60f2fa5dd1a8caf19eb94e4376a19eac9",
        "manifest.txt": "c732da6193d5575b53fff0c4e2d33458aabac7a3bc7a8e7ce17ab08bf7f0abad",
    },
    "one_node": {
        "rounds.csv": "f93335c41f565bb5a6b5384fabdc39512f37bcf06756dd9984c95728cb2eb154",
        "summary.csv": "ebb5040bb9f97a6a25583304dd9ff1902170c667478c7622bbec34a76efb8db4",
        "trust.csv": "dd7d24e8e097c0b63b1b1940a08aa22bc503e68ca008df9b022d7fb91a5014a1",
        "outlier.csv": "0aba8c27702079852ba2e67df843d32e69a41e52b3fb29d5824b8e4639977bc3",
        "manifest.txt": "d9459a24ce4a3ad9005ebfec1caf7538e1f04e86b6aa839ed94749a18933f46a",
    },
    "tier3_saturated": {
        "rounds.csv": "2f121c3c675fcd23496ec04a74b90f57bb1a0d91bc14e2193edcd2d5a7b14741",
        "summary.csv": "c4b79b52fe983db38688f51fd1693e3b4e00f2f27fc60e21b1acf2b50a1cfcae",
        "trust.csv": "6996bea1774832dcf423d3a770c1a8bd252e1639b287e3349be74d483dd28a5b",
        "outlier.csv": "5debbc42141163a88edb70ba7adc9ab76e11c241ddd3dc268817ec7dca03eeb9",
        "manifest.txt": "d35497b2b2cdb3ee69efbde9395c71d17e56cb501de0e14cdbbc1154fecc121f",
    },
}

SWEEP_GOLDEN = "00dc34f4736119a0d52a56bfe04a8f6e92690770ffb8910ed98210674428de43"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_run(tmp_path, name):
    run_to_files(CONFIGS[name], str(tmp_path), dump_trust=True, dump_outlier=True)
    assert {f: sha256(tmp_path / f) for f in FILES} == GOLDEN[name]


def test_golden_sweep(tmp_path):
    spec = ScenarioSpec(config_path=None, seeds=(1, 2),
                        sweep_key="malicious_fraction", sweep_values=("0", "0.3"),
                        output_dir=str(tmp_path))
    summary = run_sweep(spec, base=SimConfig(node_count=20, rounds=60))
    assert sha256(tmp_path / "summary.csv") == SWEEP_GOLDEN
    assert summary == str(tmp_path / "summary.csv")
