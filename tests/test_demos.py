"""The trust-surface demo, the one demo that classifies trust, runs and
prints the labels it always has."""
import runpy
from pathlib import Path

DEMO = Path(__file__).resolve().parent.parent / "demos" / "trust_surface.py"


def test_trust_surface_demo_labels(capsys):
    runpy.run_path(str(DEMO), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("Linguistic labels along dfr at dfd=0.2:") + 1
    assert lines[start:] == [
        "  dfr=0.2: trust=0.3333 -> distrust",
        "  dfr=0.4: trust=0.5972 -> medium_trust",
        "  dfr=0.6: trust=0.7130 -> medium_trust",
        "  dfr=0.8: trust=0.9537 -> complete_trust",
        "  dfr=1.0: trust=0.9722 -> complete_trust",
    ]
