"""Command-line interface: exit codes, config handling and dataset files."""

import hashlib
import json
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import ehrelay.cli as cli
import ehrelay.montecarlo as mc
import ehrelay.optimize as opt
from conftest import run_python
from ehrelay.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    Row,
    boundary_points,
    build_system,
    default_settings,
    main,
    selftest_points,
)
from ehrelay.model import SystemConfig


def run(args):
    return main(args)


def run_subprocess(args, timeout=60):
    return run_python(["-m", "ehrelay.cli", *args], timeout=timeout)


# point flags whose outage is certain: an FD loop-back cutoff k1/v that is a subnormal
# (about 1.1e-311) or underflows to 0 (tau one ulp below 1, threshold exponent 1023.5),
# and relays whose harvested power or share of the signal underflows to 0
CERTAIN_OUTAGE = {
    "": ["fd-af-tsr", "--tau", "0.999", "--override", "system.cth=1.023"],
    **{f"{label}-cutoff-0": [label, "--tau", repr(1 - 2.0**-53),
                             "--override", f"system.cth={1023.5 * 2.0**-53!r}"]
       for label in ("fd-df-tsr", "fd-af-tsr")},
    "fd-df-tsr-tau-1e-310": ["fd-df-tsr", "--tau", "1e-310"],
    "hd-af-psr-rho-5e-324": ["hd-af-psr", "--rho", "5e-324"],
    "hd-af-tsr-tau-5e-324": ["hd-af-tsr", "--tau", "5e-324"],
    "hd-af-irr-eta-5e-324": ["hd-af-irr", "--override", "system.eta=5e-324"],
    "hd-af-tsr-eta-5e-324": ["hd-af-tsr", "--tau", "0.5", "--override", "system.eta=5e-324"],
    "fd-af-tsr-eta-5e-324": ["fd-af-tsr", "--tau", "0.5", "--override", "system.eta=5e-324"],
}


class TestPoint:
    def test_analytic_and_mc_agree(self, capsys):
        assert run(["point", "--scenario", "hd-df-tsr", "--tau", "0.5",
                    "--trials", "50000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "analytic outage" in out and "monte carlo" in out
        lines = {l.split()[0]: l.split()[-1] for l in out.splitlines() if l}
        assert abs(float(lines["analytic"].strip()) - 0.997666605) < 1e-6

    def test_zero_threshold_reports_zeros(self, capsys):
        assert run(["point", "--scenario", "hd-af-irr", "--override",
                    "system.cth=0", "--trials", "10000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "analytic outage    0\n" in out
        assert "monte carlo        0\n" in out

    def test_invalid_tau_names_field(self, capsys):
        code = run(["point", "--scenario", "hd-df-tsr", "--tau", "1.2", "--no-mc"])
        assert code == EXIT_CONFIG
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, threads, capsys):
        assert run(["point", "--scenario", "hd-df-irr", "--no-mc",
                    "--threads", threads]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--threads" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("label,override", [
        ("hd-df-tsr", "system.d1_m=1e200"),  # path loss overflows
        ("hd-df-tsr", "system.d1_m=1e-300"),  # path loss underflows to 0
        ("fd-df-tsr", "system.path_loss_exp=400"),  # lp1 * lp2 * sigma_d2_w overflows
    ])
    def test_degenerate_link_rejected(self, label, override, capsys):
        assert run(["point", "--scenario", label, "--tau", "0.5", "--no-mc",
                    "--override", override]) == EXIT_CONFIG
        assert "config error: system:" in capsys.readouterr().err

    def test_no_mc_skips_simulation(self, capsys):
        assert run(["point", "--scenario", "hd-df-irr", "--no-mc"]) == EXIT_OK
        assert "monte carlo" not in capsys.readouterr().out

    @pytest.mark.parametrize("mc,case", [
        pytest.param(mc, case, id="-".join(filter(None, (path, case))))
        for case in CERTAIN_OUTAGE
        for path, mc in (("no-mc", ["--no-mc"]), ("mc", ["--trials", "10000"]))])
    def test_fd_af_zero_loop_back_cutoff_is_outage(self, mc, case):
        proc = run_subprocess(["point", *mc, "--scenario", *CERTAIN_OUTAGE[case]])
        assert proc.returncode == EXIT_OK
        assert "analytic outage    1\n" in proc.stdout
        assert "--no-mc" in mc or "monte carlo        1\n" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_point_writes_csv(self, tmp_path):
        out = tmp_path / "point.csv"
        assert run(["point", "--scenario", "hd-df-irr", "--trials", "10000",
                    "--out", str(out)]) == EXIT_OK
        body = out.read_text()
        assert CSV_HEADER in body
        assert "hd-df-irr" in body


class TestConfigFile:
    def test_file_then_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "system.ps_watts = 5.0\n"
            "scenario.eh = psr\n"
            "scenario.rho = 0.7\n"
            "mc.trials = 10000\n"
        )
        out = tmp_path / "run.csv"
        assert run(["point", "--config", str(cfg), "--trials", "20000",
                    "--out", str(out)]) == EXIT_OK
        body = out.read_text()
        assert "# system.ps_watts = 5" in body
        assert "# mc.trials = 20000" in body  # flag wins over file
        assert "hd-df-psr" in body

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("system.voltage = 12\n")
        assert run(["point", "--config", str(cfg), "--no-mc"]) == EXIT_CONFIG
        assert "system.voltage" in capsys.readouterr().err

    def test_block_size_is_not_a_setting(self, tmp_path, capsys):
        # the MC block size is fixed, so every dataset row replays with `point`
        cfg = tmp_path / "old.cfg"
        cfg.write_text("mc.block_size = 4096\n")
        for extra in (["--config", str(cfg)], ["--override", "mc.block_size=4096"]):
            assert run(["point", "--scenario", "hd-df-irr", *extra]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith("config error: mc.block_size: unknown key")

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert run(["point", "--config", str(cfg), "--no-mc"]) == EXIT_CONFIG

    def test_override_flag(self, capsys):
        assert run(["point", "--scenario", "hd-df-irr", "--no-mc",
                    "--override", "system.d1_m=10"]) == EXIT_OK

    def test_bad_override_value(self, capsys):
        assert run(["point", "--no-mc", "--override",
                    "system.d1_m=ten"]) == EXIT_CONFIG
        assert "system.d1_m" in capsys.readouterr().err

    @pytest.mark.parametrize("key,raw,expected", [
        ("mc.trials", "1e5", "an integer"),
        ("mc.seed", "1.5", "an integer"),
        ("system.d1_m", "ten", "a number"),
    ])
    @pytest.mark.parametrize("source", ["override", "config"])
    def test_bad_value_names_the_expected_type(self, key, raw, expected, source, tmp_path,
                                               capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        extra = ["--override", f"{key}={raw}"] if source == "override" else ["--config", str(cfg)]
        assert run(["point", "--no-mc", *extra]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {key}: expected {expected}, got {raw!r}\n"

    def test_unknown_output_format_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.out"
        assert run(["sweep", "--scenario", "hd-df-irr", "--axis", "cth", "--values", "1",
                    "--no-mc", "--override", "output.format=xml",
                    "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: output.format: ")
        assert not out.exists()

    def test_undecodable_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert run(["point", "--config", str(cfg), "--no-mc"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {cfg}: ")


class TestSweep:
    def test_tau_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--scenario", "hd-df-tsr", "--axis", "tau",
                    "--values", "0.2,0.5,0.8", "--trials", "10000",
                    "--out", str(out)]) == EXIT_OK
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == CSV_HEADER
        assert len(rows) == 4
        assert rows[1].startswith("hd-df-tsr,tau,0.2,")

    def test_axis_scenario_mismatch(self, capsys):
        assert run(["sweep", "--scenario", "hd-df-psr", "--axis", "tau",
                    "--values", "0.5", "--no-mc"]) == EXIT_CONFIG
        assert "tau" in capsys.readouterr().err

    def test_d1_sweep_under_total(self, tmp_path):
        out = tmp_path / "d1.csv"
        assert run(["sweep", "--scenario", "hd-df-irr", "--axis", "d1",
                    "--values", "5,15,25", "--no-mc",
                    "--override", "sweep.total_distance=30",
                    "--out", str(out)]) == EXIT_OK
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 4

    def test_d1_exceeding_total_rejected(self, capsys):
        assert run(["sweep", "--scenario", "hd-df-irr", "--axis", "d1",
                    "--values", "35", "--no-mc",
                    "--override", "sweep.total_distance=30"]) == EXIT_CONFIG

    @pytest.mark.parametrize("axis,values", [("cth", "2"), ("d1", "5")])
    @pytest.mark.parametrize("total", ["abc", "inf", "nan", "0", "-3"])
    def test_bad_total_distance_rejected_on_every_axis(self, capsys, axis, values, total):
        assert run(["sweep", "--axis", axis, "--values", values, "--no-mc",
                    "--override", f"sweep.total_distance={total}"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: sweep.total_distance: ")

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--scenario", "hd-df-tsr", "--axis", "tau",
                    "--values", "0.3,0.6", "--trials", "10000",
                    "--format", "json", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 2
        assert doc["settings"]["system.cth"] == 2.0
        assert doc["rows"][0]["axis_value"] == 0.3

    def test_infinite_cth_rejected(self, tmp_path, capsys):
        # JSON has no Infinity, and every other axis rejects non-finite values too
        out = tmp_path / "cth.json"
        assert run(["sweep", "--scenario", "hd-df-tsr", "--axis", "cth", "--values", "1e308,inf",
                    "--format", "json", "--trials", "10000", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: sweep: cth = inf: ")
        assert not out.exists()

    def test_missing_values_rejected(self, capsys):
        assert run(["sweep", "--scenario", "hd-df-tsr", "--axis", "tau",
                    "--no-mc"]) == EXIT_CONFIG
        # separators alone leave no value either
        assert run(["sweep", "--scenario", "hd-df-tsr", "--axis", "tau",
                    "--values", ",;", "--no-mc"]) == EXIT_CONFIG


class TestOptimize:
    def test_reports_optimum(self, capsys):
        assert run(["optimize", "--scenario", "hd-df-tsr"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "optimal tau" in out and "outage at optimum" in out

    def test_irr_rejected(self, capsys):
        assert run(["optimize", "--scenario", "hd-df-irr"]) == EXIT_CONFIG

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e-300"])
    def test_bad_tolerance_rejected(self, tol):
        # a subprocess with a timeout: a tolerance the bracket never reaches loops forever
        proc = run_subprocess(["optimize", "--scenario", "hd-df-tsr", f"--tol={tol}"])
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error: --tol: ")

    @pytest.mark.parametrize("command", ["point", "selftest"])
    def test_mc_gains_out_of_float_range_exit_numerical(self, command):
        # a 1e300 dB spread makes exp() of the dB draws underflow to 0 or overflow
        proc = run_subprocess([command, "--trials", "10000",
                               "--override", "system.ch1.sigma_db=1e300"])
        assert proc.returncode == EXIT_NUMERICAL
        assert "numerical error: x must be strictly positive" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("mc,code,stdout", [
        (["--no-mc"], EXIT_OK, "scenario           hd-df-tsr\nanalytic outage    0.5\n"),
        (["--trials", "10000"], EXIT_NUMERICAL, "")], ids=["no-mc", "mc"])
    def test_out_of_range_spread_prints_no_numpy_warning(self, mc, code, stdout):
        # at a 1e300 dB spread the quadrature nodes, the integrand and the MC draws overflow
        proc = run_subprocess(["point", *mc, "--override", "system.ch1.sigma_db=1e300"])
        assert (proc.returncode, proc.stdout) == (code, stdout)
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("scenario,key,value", [
        ("hd-df-tsr", "ch1.mu_db", "0"), ("hd-af-psr", "ch1.mu_db", "0"),
        ("hd-df-tsr", "ch1.sigma_db", "0.5"), ("hd-af-psr", "ch1.sigma_db", "0.5"),
        ("fd-af-tsr", "chg.sigma_db", "0.898720341")])
    def test_weight_out_of_float_range_prints_no_numpy_warning(self, scenario, key, value, capsys):
        # 2 * 1e308 overflows the weight's dB moments and the integrand's gains,
        # but not the window in the weight's standardized coordinate: the outage
        # is that at 1e300 (in-process: pytest turns a RuntimeWarning into an error)
        for db in ("1e308", "1e300"):
            assert run(["point", "--no-mc", "--scenario", scenario,
                        "--override", f"system.{key}={db}"]) == EXIT_OK
            out, err = capsys.readouterr()
            assert out == f"scenario           {scenario}\nanalytic outage    {value}\n"
            assert "Warning" not in err

    def test_infinite_mc_gains_exit_numerical(self):
        # a 1e300 dB mean makes every h1^2 draw overflow to inf
        proc = run_subprocess(["point", "--trials", "10000",
                               "--override", "system.ch1.mu_db=1e300"])
        assert proc.returncode == EXIT_NUMERICAL
        errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("numerical error:")]
        assert errors == ["numerical error: x must be finite"]
        assert "Traceback" not in proc.stderr

    def test_other_value_error_is_not_numerical(self, monkeypatch):
        # only FadeRangeError means gains outside the float64 range; any other
        # ValueError from the MC path keeps its traceback
        def broken(*args, **kwargs):
            raise ValueError("broken plumbing")

        monkeypatch.setattr(cli, "estimate_outage", broken)
        with pytest.raises(ValueError, match="broken plumbing"):
            run(["point", "--trials", "10000"])

    def test_finest_tolerance_converges(self, capsys):
        assert run(["optimize", "--scenario", "hd-df-psr", "--tol", "1e-12"]) == EXIT_OK
        width = capsys.readouterr().out.split("bracket width")[1].split()[0]
        assert float(width) <= 1e-12


@pytest.mark.parametrize("command,flag", [
    ("selftest", ["--no-mc"]),
    ("selftest", ["--out", "selftest.csv"]),
    ("selftest", ["--format", "json"]),
    ("optimize", ["--trials", "10000"]),
    ("optimize", ["--seed", "5"]),
    ("optimize", ["--no-mc"]),
    ("optimize", ["--threads", "8"]),
])
def test_flag_the_subcommand_never_reads_is_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *flag])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ehrelay {command} ")
    assert f"unrecognized arguments: {' '.join(flag)}" in err


# every subcommand, at its cheapest, through main's one front end
@pytest.mark.parametrize("command", [
    ["point"], ["sweep", "--axis", "ps", "--values", "1"], ["optimize"], ["figure", "fig4"],
    ["selftest"],
], ids=lambda command: command[0])
def test_every_command_checks_the_link(command, capsys):
    assert run([*command, "--override", "system.eta=2"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: system: eta must be in (0, 1], got 2.0\n"


@pytest.mark.parametrize("command", [
    ["figure", "fig4", "--no-mc", "--override", "scenario.tau=2"],
    ["optimize", "--override", "mc.trials=5"],
], ids=lambda command: command[0])
def test_command_reads_only_the_sections_it_uses(command, capsys):
    assert run(command) == EXIT_OK


@pytest.mark.parametrize("command,section", [
    (["selftest", "--override", "mc.trials=5"], "mc"),
    # with two bad sections the plan is checked before the command's own keys
    (["point", "--trials", "5", "--tau", "2"], "mc"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_config_error_names_the_first_bad_section(command, section, capsys):
    assert run(command) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {section}: ")


def test_sweep_value_names_the_expected_type(capsys):
    assert run(["sweep", "--axis", "ps", "--values", "1,x", "--no-mc"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: sweep.values: expected a number, got 'x'\n"


# tools/fingerprint.txt holds the SHA-256 of each `figure figN --no-mc` CSV on its
# figN line. Like FIG5_OPTIMA, the digits are those of the platform they were
# captured on (x86-64 with AVX-512, glibc 2.36, numpy 2.4): another libm or numpy
# build may round a last bit differently.
FINGERPRINTS = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.txt"


# every command that writes a dataset to output.path
WRITING_COMMANDS = pytest.mark.parametrize("command", [
    ["point", "--no-mc"],
    ["sweep", "--scenario", "hd-df-irr", "--axis", "cth", "--values", "1", "--no-mc"],
    ["optimize", "--scenario", "hd-df-tsr"],
    ["figure", "fig4", "--no-mc"],
], ids=lambda command: command[0])
UNWRITABLE = pytest.mark.parametrize("where", ["directory", "missing-parent"])


def unwritable(where, tmp_path):
    return tmp_path if where == "directory" else tmp_path / "missing" / "out.csv"


@WRITING_COMMANDS
@UNWRITABLE
def test_unwritable_output_path_is_a_config_error(command, where, tmp_path):
    out = unwritable(where, tmp_path)
    done = run_subprocess([*command, "--out", str(out)])
    assert done.returncode == EXIT_CONFIG
    assert done.stderr.startswith(f"config error: output.path: cannot write {out}: ")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "missing").exists()


@WRITING_COMMANDS
@UNWRITABLE
def test_unwritable_output_path_fails_before_any_evaluation(command, where, tmp_path,
                                                             monkeypatch, capsys):
    def evaluated(*args, **kwargs):
        raise AssertionError("evaluated before output.path was checked")

    monkeypatch.setattr(cli, "run_points", evaluated)
    monkeypatch.setattr(cli, "minimize_over_eh_param", evaluated)
    assert run([*command, "--out", str(unwritable(where, tmp_path))]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error: output.path: ")


def test_run_that_fails_leaves_an_existing_output_file_alone(tmp_path, capsys):
    out = tmp_path / "kept.csv"
    out.write_text("earlier dataset\n")
    code = run(["point", "--no-mc", "--tau", "2", "--out", str(out)])
    assert code == EXIT_CONFIG and "tau" in capsys.readouterr().err
    assert out.read_text() == "earlier dataset\n"


def test_selftest_never_checks_output_path(tmp_path, monkeypatch):
    # selftest writes no dataset, so an unwritable output.path is not its error
    class Evaluated(Exception):
        pass

    def evaluated(*args, **kwargs):
        raise Evaluated

    monkeypatch.setattr(cli, "run_points", evaluated)
    with pytest.raises(Evaluated):
        run(["selftest", "--override", f"output.path={tmp_path}"])


class TestFigures:
    @pytest.mark.parametrize("which", ["fig4", "fig5", "fig6", "fig7"])
    def test_analytic_csv_is_byte_identical(self, which, tmp_path):
        digests = dict(line.split() for line in FINGERPRINTS.read_text().splitlines())
        out = tmp_path / f"{which}.csv"
        assert run(["figure", which, "--no-mc", "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[which]

    def test_fig4_deterministic_across_runs_and_threads(self, tmp_path):
        paths = [tmp_path / f"fig4-{i}.csv" for i in range(3)]
        assert run(["figure", "fig4", "--trials", "10000", "--seed", "7",
                    "--out", str(paths[0])]) == EXIT_OK
        assert run(["figure", "fig4", "--trials", "10000", "--seed", "7",
                    "--out", str(paths[1])]) == EXIT_OK
        assert run(["figure", "fig4", "--trials", "10000", "--seed", "7",
                    "--threads", "8", "--out", str(paths[2])]) == EXIT_OK
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_fig4_has_all_four_curves(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run(["figure", "fig4", "--no-mc", "--out", str(out)]) == EXIT_OK
        body = out.read_text()
        for curve in ("hd-df-tsr", "hd-df-psr", "hd-af-tsr", "hd-af-psr"):
            assert curve in body

    def test_fig5_smallest_sigma_is_half_db(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert run(["figure", "fig5", "--no-mc", "--out", str(out)]) == EXIT_OK
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and l != CSV_HEADER]
        sigmas = {float(r.split(",")[2]) for r in rows}
        assert min(sigmas) == 0.5
        assert "implementation-chosen" in out.read_text()

    def test_fig5_names_dense_grid_fallbacks_in_one_note(self, tmp_path, monkeypatch):
        # the two-well objective for the hd-df-psr ps=5 curve only; no note without it
        real = opt.outages

        def two_wells(p):
            return 0.5 - 0.3 * np.exp(-((p - 0.2) ** 2) / 0.002) \
                - 0.4 * np.exp(-((p - 0.7) ** 2) / 0.002)

        def walled(pairs, params):
            values = real(pairs, params)
            for i, (c, s) in enumerate(pairs):
                if s.eh == "psr" and c.ps_watts == 5.0:
                    values[i] = two_wells(params[i])
            return values

        plain = tmp_path / "plain.csv"
        assert run(["figure", "fig5", "--no-mc", "--out", str(plain)]) == EXIT_OK
        assert "fallback" not in plain.read_text()
        monkeypatch.setattr(opt, "outages", walled)
        for fmt in ("csv", "json"):
            out = tmp_path / f"fig5.{fmt}"
            assert run(["figure", "fig5", "--no-mc", "--format", fmt,
                        "--out", str(out)]) == EXIT_OK
            text = out.read_text()
            notes = ([l for l in text.splitlines() if l.startswith("# note:")] if fmt == "csv"
                     else json.loads(text)["notes"])
            fallback = [n for n in notes if "fallback" in n]
            assert len(fallback) == 1, notes
            for relay in ("df", "af"):
                for sigma in ("0.5", "1", "1.5", "2", "2.5", "3"):
                    assert f"hd-{relay}-psr ps=5 sigma_db={sigma}" in fallback[0]
            assert "ps=1" not in fallback[0] and "tsr" not in fallback[0]

    def test_fig6_covers_probe_distances(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert run(["figure", "fig6", "--no-mc", "--out", str(out)]) == EXIT_OK
        body = out.read_text()
        for d1 in ("5", "15", "25"):
            assert f",d1,{d1}," in body
        for pc in ("0", "0.01", "0.02"):
            assert f"hd-df-irr pc={pc}" in body

    def test_fig7_covers_fd_and_hd(self, tmp_path):
        out = tmp_path / "fig7.csv"
        assert run(["figure", "fig7", "--no-mc", "--out", str(out)]) == EXIT_OK
        body = out.read_text()
        assert "fd-df-tsr ps=1 sg2=5" in body
        assert "hd-af-tsr ps=10" in body

    def test_preset_config_error_names_axis_and_value(self, capsys):
        # the destination SNR scale underflows at the first point, d1 = 3 m and d2 = 27 m
        assert run(["figure", "fig6", "--no-mc", "--override",
                    "system.path_loss_exp=200"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: figure fig6: ") and len(err.strip().splitlines()) == 1
        assert "d1 = 3.0" in err

    def test_fig4_curves_have_interior_minima(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run(["figure", "fig4", "--no-mc", "--out", str(out)]) == EXIT_OK
        curves = {}
        for line in out.read_text().splitlines():
            if line.startswith("#") or line == CSV_HEADER or not line:
                continue
            name, _, value, analytic = line.split(",")[:4]
            curves.setdefault(name, []).append(float(analytic))
        assert len(curves) == 4
        for name, vals in curves.items():
            interior = min(vals[1:-1])
            assert vals[0] > interior and vals[-1] > interior, name


def test_emitted_cth_sweep_is_monotone(tmp_path):
    out = tmp_path / "cth.csv"
    assert run(["sweep", "--scenario", "hd-df-tsr", "--axis", "cth",
                "--values", "0.5,1,2,4", "--no-mc", "--out", str(out)]) == EXIT_OK
    vals = [float(l.split(",")[3]) for l in out.read_text().splitlines()
            if l and not l.startswith("#") and l != CSV_HEADER]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_default_settings_cover_all_keys():
    settings = default_settings()
    assert settings["system.cth"] == 2.0
    assert {k for k in settings if k.startswith("mc.")} == {"mc.trials", "mc.seed"}
    # every dotted key belongs to a known section
    assert {k.split(".")[0] for k in settings} == {"system", "scenario", "sweep", "mc", "output"}


def test_system_settings_mirror_system_config():
    settings = default_settings()
    assert build_system(settings) == SystemConfig()
    for f in fields(SystemConfig):
        if is_dataclass(f.default):
            for part in ("mu_db", "sigma_db"):
                assert settings[f"system.{f.name}.{part}"] == getattr(f.default, part)
        else:
            assert settings[f"system.{f.name}"] == f.default
    assert len([k for k in settings if k.startswith("system.")]) == 9 + 3 * 2


def test_csv_header_matches_json_row_keys():
    row = Row("hd-df-tsr", "tau", 0.5, 0.25, 0.26, 0.01, 10000, 7)
    assert CSV_HEADER.split(",") == list(asdict(row))
    assert row.csv() == "hd-df-tsr,tau,0.5,0.25,0.26,0.01,10000,7"


def test_selftest_grid_covers_eight_scenarios():
    points = selftest_points(SystemConfig())
    labels = [p.scenario.label() for p in points]
    assert len(points) == 74
    assert labels.count("hd-df-tsr") + labels.count("hd-af-tsr") == 18
    assert labels.count("hd-df-psr") + labels.count("hd-af-psr") == 18
    assert labels.count("hd-df-irr") + labels.count("hd-af-irr") == 2
    assert sum(p.scenario.duplex == "fd" for p in points) == 36


def test_boundary_probe_table():
    probes = boundary_points(SystemConfig())
    assert len(probes) == 20
    # 12 saturation probes (tau/rho at 1e-4 and 1 - 1e-4), 8 zero-threshold ones
    assert sum(p.axis in ("tau", "rho") for p in probes) == 12
    assert [p.cfg.cth for p in probes if p.axis == "cth"] == [0.0] * 8
    assert len({p.scenario.label() for p in probes if p.axis == "cth"}) == 8


def test_selftest_passes_at_reduced_budget(capsys):
    # deterministic with the default seed; small budget keeps it quick
    assert main(["selftest", "--trials", "20000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


# three MC blocks per point (see multi_block), the last one short
MULTI_BLOCK = ["--trials", "10000"]


@pytest.fixture
def multi_block(monkeypatch):
    monkeypatch.setattr(mc, "BLOCK_SIZE", 4096)


@pytest.mark.usefixtures("multi_block")
def test_fig7_dataset_identical_at_one_two_and_four_threads(tmp_path):
    # fig7 alternates the loop-back spread between curves, so rows redraw
    # that slot while the blocks run on the pool
    blobs = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"fig7-{threads}.csv"
        assert run(["figure", "fig7", *MULTI_BLOCK, "--seed", "99", "--threads", threads,
                    "--out", str(out)]) == EXIT_OK
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.usefixtures("multi_block")
@pytest.mark.parametrize("label,extra", [("hd-af-psr", ["--rho", "0.4"]),
                                         ("fd-df-tsr", ["--tau", "0.3"])])
def test_sweep_rows_replay_with_point(tmp_path, label, extra):
    sweep = tmp_path / "sweep.csv"
    assert run(["sweep", "--scenario", label, *extra, "--axis", "ps", "--values", "1,10,100",
                *MULTI_BLOCK, "--seed", "2024", "--out", str(sweep)]) == EXIT_OK
    rows = [line.split(",") for line in sweep.read_text().splitlines()[-3:]]
    for cols in rows:
        point = tmp_path / "point.csv"
        assert run(["point", "--scenario", label, *extra, *MULTI_BLOCK, "--seed", "2024",
                    "--override", f"system.ps_watts={cols[2]}", "--out", str(point)]) == EXIT_OK
        replayed = point.read_text().splitlines()[-1].split(",")
        assert replayed[3:] == cols[3:] and cols[-1] == "2024"


def test_selftest_names_seed_and_rows_replay_with_point(capsys):
    assert main(["selftest", "--trials", "10000", "--seed", "77"]) in (EXIT_OK, 4)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "selftest: seed 77, 10000 trials per point"
    row = next(line for line in lines if line.startswith("PASS fd-af-tsr sg2=5 tau=0.3:")
               or line.startswith("FAIL fd-af-tsr sg2=5 tau=0.3:"))
    assert run(["point", "--scenario", "fd-af-tsr", "--tau", "0.3", "--trials", "10000",
                "--seed", "77", "--override", f"system.chg.sigma_db={5 ** 0.5!r}"]) == EXIT_OK
    replayed = float(capsys.readouterr().out.split("monte carlo")[1].split()[0])
    assert f"mc={replayed:.6f} " in row
