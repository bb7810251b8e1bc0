"""The scripts under tools/ still run against the package's API."""

import importlib.util
import re
from pathlib import Path

import ehrelay.montecarlo as mc

TOOLS = Path(__file__).resolve().parents[1] / "tools"
FINGERPRINT_LINES = ["fig4", "fig5", "fig6", "fig7", "selftest", "outages", "minimize_many",
                     "estimate_outage", "snr_pair", "mc_memo"]


def test_fingerprint_prints_every_line(capsys):
    """tools/fingerprint.py checks that a refactor moves no number; a package
    change that broke it would show only at the next such check."""
    spec = importlib.util.spec_from_file_location("fingerprint", TOOLS / "fingerprint.py")
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    fingerprint.main()
    mc._memo.clear()  # the runs filled the process's memo; free it for the other tests
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == FINGERPRINT_LINES
    assert all(re.fullmatch(r"\w+ [0-9a-f]{64}", line) for line in lines)
