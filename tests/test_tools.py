"""The scripts under tools/ still run against the package's API."""

import importlib.util
from pathlib import Path

import ehrelay.montecarlo as mc

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_fingerprint_prints_every_line(capsys):
    """tools/fingerprint.py prints each line of tools/fingerprint.txt: every bit
    of the results it digests is as committed. A change that moves numbers on
    purpose regenerates that file."""
    spec = importlib.util.spec_from_file_location("fingerprint", TOOLS / "fingerprint.py")
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    fingerprint.main()
    mc._memo.clear()  # the runs filled the process's memo; free it for the other tests
    lines = capsys.readouterr().out.splitlines()
    golden = (TOOLS / "fingerprint.txt").read_text().splitlines()
    assert lines == golden
