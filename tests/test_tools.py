"""The scripts under tools/ still run against the package's API."""

import ast

import ehrelay.montecarlo as mc
from conftest import TOOLS, load_tool
from ehrelay import lognormal


def test_fingerprint_prints_every_line(capsys):
    """tools/fingerprint.py prints each line of tools/fingerprint.txt: every bit
    of the results it digests is as committed. A change that moves numbers on
    purpose regenerates that file."""
    load_tool("fingerprint").main()
    mc._memo.clear()  # the runs filled the process's memo; free it for the other tests
    lines = capsys.readouterr().out.splitlines()
    golden = (TOOLS / "fingerprint.txt").read_text().splitlines()
    assert lines == golden


def test_fit_q_prints_the_coefficients_that_q_vector_holds(capsys):
    """tools/fit_q.py refits q_vector's rational: the _Q_NUM and _Q_DEN tuples it
    prints are lognormal's, bit for bit."""
    load_tool("fit_q").main()
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
                   if line.startswith("_Q_"))
    assert ast.literal_eval(printed["_Q_NUM"]) == lognormal._Q_NUM
    assert ast.literal_eval(printed["_Q_DEN"]) == lognormal._Q_DEN
