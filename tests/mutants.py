"""Mutation catalogue: which fast tests fail when one source line changes.

Each entry names a file, one exact source line (compared with its
indentation stripped), the line that replaces it and what the change
breaks.  An entry whose line is not found exactly once is refused, so a
refactor that moves or rewrites a line cannot silently retire its mutant.

    python tests/mutants.py --check     # every entry's line is found once
    python tests/mutants.py             # run every mutant
    python tests/mutants.py NAME ...    # run the named mutants

A run copies the repository to a temporary directory for each mutant,
applies the one replacement, runs `pytest -m "not slow"` there without
`-x` and prints the tests that fail.  Start from a tree whose fast suite
passes, or its failures read as kills.  It exits 1 when a line is not
found once or a mutant survives.  Pytest does not collect this file.
"""
import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str    # relative to the repository root
    line: str    # the source line, indentation stripped
    mutant: str  # what replaces it, at the same indentation
    breaks: str


MUTANTS = [
    Mutant("rotation_floor", "src/scfto/protocol.py",
           "return math.ceil(1.0 / max(params.p0_init, params.p_dt))",
           "return math.ceil(1.0 / max(params.p0_init, params.p_dt)) + 1",
           "the shortest rotation window is one round too long, so `update_nodes` "
           "leaves p_ch stale on a node that may be eligible"),
    Mutant("converged_scan", "src/scfto/protocol.py",
           "if t is None or t >= t_th:  # acceptable; the ranking picks which",
           "if t is None or t > t_th:  # acceptable; the ranking picks which",
           "a converged node finds no acceptable head when the best one sits "
           "exactly at its threshold"),
    Mutant("vouch_rule", "src/scfto/protocol.py",
           "if value >= VOUCH_LEVEL and ent.counters.total_forwarding < VOUCH_MIN_EVIDENCE:",
           "if value >= VOUCH_LEVEL and ent.counters.total_forwarding <= VOUCH_MIN_EVIDENCE:",
           "a head with exactly the minimum evidence may no longer vouch"),
    Mutant("merge_prior", "src/scfto/trust.py",
           "if prior is not None and prior > 0.0:",
           "if prior is not None and prior >= 0.0:",
           "a recommendation averages with a prior of 0 in place of replacing it"),
    Mutant("capture_branch", "src/scfto/protocol.py",
           "if rng.random() < p_cd:",
           "if rng.random() >= p_cd:",
           "a bad-channel retransmission is captured as delayed with probability "
           "1 - p_cd"),
    Mutant("capture_rate", "src/scfto/protocol.py",
           "if rng.random() < p_cd:",
           "if rng.random() < p_no:",
           "the capture draw reads p_no, which equals p_cd by default"),
    Mutant("energy_clamp", "src/scfto/network.py",
           "if node.energy_j <= 0.0:",
           "if node.energy_j < 0.0:",
           "a node that pays its last joule exactly stays alive at 0 J"),
    Mutant("head_history", "src/scfto/protocol.py",
           "del node.head_history[:-config.election.n_lch]",
           "del node.head_history[:-config.election.n_lch - 1]",
           "the head history keeps n_lch + 1 entries"),
    Mutant("neighbour_radius", "src/scfto/outlier.py",
           "while scan[hi] - v < t_nbr:",
           "while scan[hi] - v <= t_nbr:",
           "a value exactly t_nbr above another counts as its neighbour"),
    Mutant("grow_test", "src/scfto/outlier.py",
           "while left - 1 >= 0 and min_core - vals[left - 1] < params.t_nbr:",
           "while left - 1 >= 0 and min_core - vals[left - 1] <= params.t_nbr:",
           "the cluster grows to a value exactly t_nbr below its lowest core value"),
    Mutant("bs_link_rule", "src/scfto/config.py",
           "bx, by = self.bs_x, self.bs_y",
           "bx, by = self.bs_x, self.bs_x",
           "the link rule measures the base station's y from bs_x"),
    Mutant("bs_uplink", "src/scfto/protocol.py",
           "bs = (config.bs_x, config.bs_y)",
           "bs = (config.bs_x, config.bs_x)",
           "heads pay the uplink to a base station at (bs_x, bs_x)"),
    Mutant("bs_keys", "src/scfto/config.py",
           '*_keys("", _FLOAT, _FINITE, "bs_x", "bs_y"),',
           '*_keys("", _FLOAT, _FINITE, "bs_x", "bs_x"),',
           "the key table has no bs_y row: the key is unknown, unchecked and "
           "not in a manifest"),
]


def locate(root: Path, m: Mutant) -> list:
    """Indices of the lines of `m.path` under `root` that equal `m.line`."""
    lines = (root / m.path).read_text(encoding="utf-8").splitlines()
    return [i for i, text in enumerate(lines) if text.strip() == m.line]


def check(mutants: list) -> list:
    """Messages for the entries whose line is not found exactly once."""
    return [f"{m.name}: {m.path} has {len(found)} lines equal to {m.line!r}"
            for m in mutants if len(found := locate(ROOT, m)) != 1]


def apply(root: Path, m: Mutant) -> None:
    path = root / m.path
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    [i] = locate(root, m)
    text = lines[i]
    indent = text[:len(text) - len(text.lstrip())]
    lines[i] = indent + m.mutant + text[len(text.rstrip("\r\n")):]
    path.write_text("".join(lines), encoding="utf-8")


_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                  ".benchmarks", "*.egg-info", "out")


def failing_tests(m: Mutant) -> list:
    """The fast tests that fail in a copy of the repository with `m` applied."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{m.name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORED)
        apply(copy, m)
        report = Path(tmp) / "report.xml"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-m", "not slow", "--tb=no",
                        "-p", "no:cacheprovider", f"--junitxml={report}"],
                       cwd=copy, capture_output=True)
        cases = ElementTree.parse(report).iter("testcase")
        return [f"{case.get('classname')}::{case.get('name')}" for case in cases
                if case.find("failure") is not None or case.find("error") is not None]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--check", action="store_true",
                        help="only check that every entry's line is found once")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    problems = check(chosen)
    for problem in problems:
        print(problem)
    if problems or args.check:
        if not problems:
            print(f"{len(chosen)} mutants, each line found once")
        return 1 if problems else 0
    survivors = []
    for m in chosen:
        failed = failing_tests(m)
        print(f"{m.name} ({m.path}): {m.breaks}")
        print(f"  killed by {len(failed)}" if failed else "  SURVIVED", flush=True)
        for test in failed:
            print(f"    {test}")
        if not failed:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
