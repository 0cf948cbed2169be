"""End-to-end tests of the command line interface, run in process."""

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import survquant
from survquant import (PowerSpec, min_sample_size, power_multivariate, sample_trial,
                       scenario_from_delta, scenario_psi, simulate)
from survquant.cli import build_parser, main, read_dataset
from survquant.errors import DatasetFormatError, ValidationError

SCENARIO_TEXT = "lambda_a = 1.5\ndelta = 0.1\np = 0.5\nlambda_cens = 0.48\n"
SCENARIO_DELAYED = SCENARIO_TEXT + "t_cut = 0.2\n"
# a proportional-hazards null with enough censoring for failed replicates
SCENARIO_NULL = "lambda_a = 1.5\ndelta = 0\np = 0.75\nlambda_cens = 1.0\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_dataset(path, n=35, seed=10, identical=False, rate2=1.5, cens=0.48):
    """Write a censored two-group CSV; identical=True clones group 1."""
    rng = np.random.default_rng(seed)

    def arm(rate):
        events = rng.exponential(1.0 / rate, n)
        censor = rng.exponential(1.0 / cens, n)
        observed = np.minimum(events, censor)
        return observed, (events <= censor).astype(int)

    t1, s1 = arm(1.5)
    t2, s2 = (t1, s1) if identical else arm(rate2)
    lines = ["time,status,group"]
    lines += [f"{repr(float(t))},{s},1" for t, s in zip(t1, s1)]
    lines += [f"{repr(float(t))},{s},2" for t, s in zip(t2, s2)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO_TEXT)
    return str(path)


def manifest_from_table(out):
    for line in out.splitlines():
        if line.startswith("manifest: "):
            return json.loads(line[len("manifest: "):])
    raise AssertionError("no manifest line in table output")


def manifest_from_csv(out):
    first = out.splitlines()[0]
    assert first.startswith("# manifest: ")
    return json.loads(first[len("# manifest: "):])


def strict_json(text):
    """json.loads that rejects the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestReadDataset:
    def test_round_trip(self, tmp_path):
        path = make_dataset(tmp_path / "d.csv")
        data, info = read_dataset(path)
        assert data.arm1.times.size == 35
        assert data.arm2.times.size == 35
        assert len(info["sha256"]) == 64
        assert info["ignored_columns"] == []

    def test_column_order_is_free(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("group,time,status\n1,0.5,1\n1,0.7,0\n2,0.4,1\n2,0.9,1\n")
        data, _ = read_dataset(str(path))
        assert list(data.arm1.times) == [0.5, 0.7]
        assert list(data.arm2.events) == [True, True]

    def test_extra_columns_reported(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "time,status,group,site\n0.5,1,1,a\n0.7,0,1,b\n0.4,1,2,a\n"
        )
        _, info = read_dataset(str(path))
        assert info["ignored_columns"] == ["site"]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,event,group\n0.5,1,1\n")
        with pytest.raises(DatasetFormatError, match="line 1.*status"):
            read_dataset(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="empty"):
            read_dataset(str(path))

    def test_bad_status_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,group\n0.5,1,1\n0.7,dead,1\n")
        with pytest.raises(DatasetFormatError, match="line 3: status"):
            read_dataset(str(path))

    def test_bad_time(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,group\nsoon,1,1\n")
        with pytest.raises(DatasetFormatError, match="line 2: time"):
            read_dataset(str(path))

    def test_negative_time(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,group\n-0.5,1,1\n")
        with pytest.raises(DatasetFormatError, match="non-negative"):
            read_dataset(str(path))

    def test_bad_group(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,group\n0.5,1,3\n")
        with pytest.raises(DatasetFormatError, match="group must be 1 or 2"):
            read_dataset(str(path))

    def test_field_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,group\n0.5,1\n")
        with pytest.raises(DatasetFormatError, match="line 2: expected 3 fields"):
            read_dataset(str(path))

    def test_single_group_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,group\n0.5,1,1\n0.7,0,1\n")
        with pytest.raises(ValidationError, match="two groups required: group 2"):
            read_dataset(str(path))

    def test_trailing_blank_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,group\n0.5,1,1\n0.4,1,2\n\n")
        data, _ = read_dataset(str(path))
        assert data.arm1.times.size == 1

    def test_byte_order_mark_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbftime,status,group\n0.5,1,1\n0.4,1,2\n")
        data, _ = read_dataset(str(path))
        assert list(data.arm1.times) == [0.5]
        assert list(data.arm2.times) == [0.4]


def assert_one_line_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestInvalidInputExitCode:
    """Invalid inputs exit 2 with one error line, never a traceback."""

    def test_dataset_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"time,status,group\n0.5,1,1\n0.7,1,2\xff\n")
        assert_one_line_error(*run_cli(capsys, "test", str(path), "--p", "0.5"))
        with pytest.raises(DatasetFormatError, match="line 3: not UTF-8"):
            read_dataset(str(path))

    def test_not_utf8_after_a_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbftime,status,group\n0.5,1,1\n0.7,1,2\n\xff\n")
        code, out, err = run_cli(capsys, "test", str(path), "--p", "0.5")
        assert_one_line_error(code, out, err)
        assert "line 4: not UTF-8 text (byte 0xff)" in err

    def test_scenario_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "s.cfg"
        path.write_bytes(b"lambda_a = 1.5\np = 0.5\n# caf\xe9\n")
        code, out, err = run_cli(
            capsys, "power", "--scenario", str(path), "--delta", "0.1", "--n", "100"
        )
        assert_one_line_error(code, out, err)
        assert "line 3: not UTF-8 text (byte 0xe9)" in err

    @pytest.mark.parametrize("text,extra", [
        (SCENARIO_TEXT, ["--delta", "1e-12"]),
        ("lambda_a = 1.5\ndelta = 0.1\np = 0.999999\nlambda_cens = 50\n", []),
    ])
    def test_samplesize_past_the_cap(self, tmp_path, capsys, text, extra):
        path = tmp_path / "s.cfg"
        path.write_text(text)
        code, out, err = run_cli(
            capsys, "samplesize", "--scenario", str(path), "--power", "0.8", *extra
        )
        assert_one_line_error(code, out, err)
        assert "more than 2^52 subjects per group" in err

    @pytest.mark.parametrize("argv", [
        ["power", "--delta", "0.1", "--n", "100"],
        ["samplesize", "--power", "0.8"],
        ["simulate", "--n", "20", "--reps", "2", "--seed", "1"],
    ], ids=["power", "samplesize", "simulate"])
    def test_density_underflow(self, tmp_path, capsys, argv):
        path = tmp_path / "s.cfg"
        path.write_text("lambda_a = 1e-300\ndelta = 0.1\np = 0.5\nlambda_cens = 0.48\n")
        code, out, err = run_cli(capsys, *argv, "--scenario", str(path))
        assert_one_line_error(code, out, err)
        assert "underflows to 0" in err

    @pytest.mark.parametrize("sigma", ["1e-300", "1e200"])
    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_sigma_eps_out_of_range(self, tmp_path, scenario_file, capsys, command,
                                    sigma):
        # the perturbations' sum of squares underflows to 0 or overflows
        if command == "test":
            argv = ["test", make_dataset(tmp_path / "d.csv"), "--p", "0.5"]
        else:
            argv = ["simulate", "--scenario", scenario_file, "--n", "25",
                    "--reps", "2", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv, "--sigma-eps", sigma)
        assert_one_line_error(code, out, err)
        assert "sigma_eps is out of range" in err

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("command", ["test", "power", "samplesize", "simulate"])
    def test_json_path_not_writable(self, tmp_path, scenario_file, capsys, command, target):
        argv = {
            "test": ["test", make_dataset(tmp_path / "d.csv"), "--p", "0.5"],
            "power": ["power", "--scenario", scenario_file, "--delta", "0.1", "--n", "10"],
            "samplesize": ["samplesize", "--scenario", scenario_file, "--power", "0.8"],
            "simulate": ["simulate", "--scenario", scenario_file, "--n", "20", "--reps", "2",
                         "--seed", "1"],
        }[command]
        path = tmp_path / "no-such-dir" / "out.json" if target == "missing-dir" else tmp_path
        code, out, err = run_cli(capsys, *argv, "--json", str(path))
        assert_one_line_error(code, out, err)
        assert f"cannot write JSON output {path}: " in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["power", "samplesize", "simulate"])
    def test_lambda_cens_not_finite(self, tmp_path, capsys, command, value):
        path = tmp_path / "s.cfg"
        path.write_text(SCENARIO_TEXT.replace("0.48", value))
        argv = {
            "power": ["--delta", "0.1", "--n", "10"],
            "samplesize": ["--power", "0.8"],
            "simulate": ["--n", "20", "--reps", "2", "--seed", "1"],
        }[command]
        code, out, err = run_cli(capsys, command, "--scenario", str(path), *argv)
        assert_one_line_error(code, out, err)
        assert err == f"error: lambda_cens must be finite and non-negative, got {value}\n"

    @pytest.mark.parametrize("command,text,line", [
        pytest.param(command, text, line, id=f"{command}-{key}")
        for key, text, line in [
            ("lambda_a", SCENARIO_TEXT.replace("1.5", "inf"),
             "lambda_a must be positive and finite, got inf"),
            ("lambda_b", SCENARIO_TEXT.replace("delta = 0.1", "lambda_b = nan"),
             "lambda_b must be positive and finite, got nan"),
            ("t_cut", SCENARIO_TEXT + "t_cut = nan\n",
             "t_cut must be positive and finite, got nan"),
            ("t_cut-lambda_b",
             SCENARIO_TEXT.replace("delta = 0.1", "lambda_b = 1.2") + "t_cut = nan\n",
             "t_cut must be positive and finite, got nan"),
            ("lambda_cens", SCENARIO_TEXT.replace("0.48", "inf"),
             "lambda_cens must be finite and non-negative, got inf"),
        ]
        for command in ["power", "samplesize", "simulate"]
        # power requires --delta, which replaces lambda_b
        if not (command == "power" and "lambda_b" in key)
    ])
    def test_scenario_key_not_finite(self, tmp_path, capsys, command, text, line):
        """A non-finite scenario value is reported under its own key."""
        path = tmp_path / "s.cfg"
        path.write_text(text)
        argv = {
            "power": ["--delta", "0.1", "--n", "10"],
            "samplesize": ["--power", "0.8"],
            "simulate": ["--n", "20", "--reps", "2", "--seed", "1"],
        }[command]
        code, out, err = run_cli(capsys, command, "--scenario", str(path), *argv)
        assert (code, out, err) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize("command", ["power", "samplesize", "simulate"])
    def test_delta_not_finite(self, scenario_file, capsys, command):
        argv = {
            "power": ["--n", "10"],
            "samplesize": ["--power", "0.8"],
            "simulate": ["--n", "20", "--reps", "2", "--seed", "1"],
        }[command]
        code, out, err = run_cli(capsys, command, "--scenario", scenario_file, *argv,
                                 "--delta", "nan")
        assert (code, out, err) == (2, "", "error: delta must be finite, got nan\n")

    @pytest.mark.parametrize("flag,value,line", [
        ("--p", "1.5", "error: p must lie strictly between 0 and 1, got 1.5\n"),
        ("--alpha", "1.5", "error: alpha must lie strictly between 0 and 1, got 1.5\n"),
    ], ids=["p", "alpha"])
    @pytest.mark.parametrize("command", ["test", "power", "samplesize", "simulate"])
    def test_one_line_per_rule(self, tmp_path, scenario_file, capsys, command, flag, value,
                               line):
        """Every command reports a p or an alpha outside (0, 1) with the same line."""
        argv = {
            "test": ["test", make_dataset(tmp_path / "d.csv"), "--p", "0.5"],
            "power": ["power", "--scenario", scenario_file, "--delta", "0.1", "--n", "10"],
            "samplesize": ["samplesize", "--scenario", scenario_file, "--power", "0.8"],
            "simulate": ["simulate", "--scenario", scenario_file, "--n", "20", "--reps", "2",
                         "--seed", "1"],
        }[command]
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert (code, out, err) == (2, "", line)

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_repeated_probability(self, tmp_path, scenario_file, capsys, command):
        argv = {
            "test": ["test", make_dataset(tmp_path / "d.csv")],
            "simulate": ["simulate", "--scenario", scenario_file, "--n", "20", "--reps", "2",
                         "--seed", "1"],
        }[command]
        code, out, err = run_cli(capsys, *argv, "--p", "0.25,0.5,0.25")
        assert (code, out, err) == (2, "", "error: probabilities must be distinct\n")

    def test_simulate_negative_seed(self, scenario_file, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--n", "25",
            "--reps", "2", "--seed", "-1",
        )
        assert_one_line_error(code, out, err)
        assert "seed" in err

    @pytest.mark.parametrize("flag,method", [
        ("--sigma-eps", "ls"), ("--bandwidth", "kde"),
    ])
    def test_simulate_tuning_not_a_number(self, scenario_file, capsys, flag,
                                          method):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--n", "25",
            "--reps", "2", "--seed", "1", "--method", method, flag, "abc",
        )
        assert_one_line_error(code, out, err)
        assert f"{flag} must be a number or 'auto'" in err

    def test_test_negative_seed(self, tmp_path, capsys):
        path = make_dataset(tmp_path / "d.csv")
        code, out, err = run_cli(capsys, "test", path, "--p", "0.5", "--seed", "-1")
        assert_one_line_error(code, out, err)
        assert "--seed" in err


    def test_test_bonferroni_needs_two_probabilities(self, tmp_path, capsys):
        path = make_dataset(tmp_path / "d.csv")
        code, out, err = run_cli(capsys, "test", path, "--p", "0.5", "--bonferroni")
        assert_one_line_error(code, out, err)
        assert "Bonferroni follow-up needs at least 2 probabilities" in err

    @pytest.mark.parametrize("p", ["0.5", "0.25,0.5"])
    @pytest.mark.parametrize("alpha", ["5", "0", "1"])
    def test_test_alpha_outside_unit_interval(self, tmp_path, capsys, p, alpha):
        path = make_dataset(tmp_path / "d.csv")
        code, out, err = run_cli(capsys, "test", path, "--p", p, "--alpha", alpha)
        assert_one_line_error(code, out, err)
        assert "alpha must lie strictly between 0 and 1" in err

    @pytest.mark.parametrize("method", ["ls", "kde"])
    @pytest.mark.parametrize("p", ["0", "-0.5", "1", "0.5,0"])
    def test_test_probability_outside_unit_interval(self, tmp_path, capsys, p, method):
        path = make_dataset(tmp_path / "d.csv")
        code, out, err = run_cli(capsys, "test", path, f"--p={p}", "--method", method)
        assert_one_line_error(code, out, err)
        bad = float(p.split(",")[-1])
        assert err == f"error: p must lie strictly between 0 and 1, got {bad!r}\n"


class TestCmdTest:
    def test_identical_groups_json(self, tmp_path, capsys):
        path = make_dataset(tmp_path / "d.csv", identical=True)
        code, out, _ = run_cli(
            capsys, "test", path, "--p", "0.5", "--sigma-eps", "2.0", "--json", "-"
        )
        assert code == 0
        payload = json.loads(out)
        result = payload["results"][0]
        assert result["delta_hat"] == 0.0
        assert result["statistic"] == 0.0
        assert result["p_value"] == 1.0
        manifest = payload["manifest"]
        assert manifest["command"] == "test"
        assert manifest["config"]["p"] == [0.5]
        assert manifest["tuning"]["sigma_eps"] == 2.0
        assert manifest["tuning"]["sigma_eps_mode"] == "fixed"
        assert manifest["seeds"] == {"seed": 0}
        assert len(manifest["dataset"]["sha256"]) == 64

    def test_table_output(self, tmp_path, capsys):
        path = make_dataset(tmp_path / "d.csv", rate2=2.5)
        code, out, _ = run_cli(capsys, "test", path, "--p", "0.5",
                               "--sigma-eps", "2.0")
        assert code == 0
        assert "p_value" in out.splitlines()[0]
        manifest = manifest_from_table(out)
        assert manifest["config"]["method"] == "ls"

    def test_unreachable_quantile_exit_3(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text(
            "time,status,group\n"
            "0.1,1,1\n0.2,0,1\n0.3,0,1\n0.4,0,1\n"
            "0.1,1,2\n0.2,0,2\n0.3,0,2\n0.5,0,2\n"
        )
        code, _, err = run_cli(capsys, "test", str(path), "--p", "0.9",
                               "--sigma-eps", "2.0")
        assert code == 3
        assert "error:" in err
        assert "not estimable" in err

    @pytest.mark.parametrize("tuning", [[], ["--sigma-eps", "2.0"], ["--method", "kde"]])
    def test_unreachable_quantile_names_the_arm(self, tmp_path, capsys, tuning):
        path = tmp_path / "d.csv"
        path.write_text(
            "time,status,group\n"
            "0.1,1,1\n0.2,1,1\n0.3,1,1\n0.4,1,1\n"
            "0.1,1,2\n0.2,0,2\n0.3,0,2\n0.5,0,2\n"
        )
        code, _, err = run_cli(capsys, "test", str(path), "--p", "0.5", *tuning)
        assert code == 3
        assert err.startswith("error: quantile not estimable in arm 2: ")
        assert err.count("\n") == 1

    def test_kde_with_one_event_exit_3(self, tmp_path, capsys):
        # arm 1 reaches p = 0.1 at its one event, too few events for CV
        path = tmp_path / "d.csv"
        path.write_text(
            "time,status,group\n"
            "0.1,1,1\n0.2,0,1\n0.3,0,1\n0.4,0,1\n0.5,0,1\n0.6,0,1\n"
            "0.1,1,2\n0.2,1,2\n0.3,1,2\n0.4,0,2\n0.5,1,2\n0.6,0,2\n"
        )
        code, out, err = run_cli(capsys, "test", str(path), "--p", "0.1", "--method", "kde")
        assert (code, out) == (3, "")
        assert err == "error: bandwidth selection needs at least 2 events in arm 1\n"

    def test_extra_column_warning(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text(
            "time,status,group,site\n"
            "0.5,1,1,a\n0.7,1,1,b\n0.9,0,1,a\n"
            "0.4,1,2,b\n0.6,1,2,a\n1.0,0,2,b\n"
        )
        code, out, err = run_cli(capsys, "test", str(path), "--p", "0.5",
                                 "--sigma-eps", "2.0", "--json", "-")
        assert code == 0
        assert "ignoring extra column(s): site" in err
        payload = json.loads(out)
        assert payload["manifest"]["dataset"]["ignored_columns"] == ["site"]

    def test_duplicate_p_rejected(self, tmp_path, capsys):
        path = make_dataset(tmp_path / "d.csv")
        code, _, err = run_cli(capsys, "test", path, "--p", "0.5,0.5")
        assert code == 2
        assert "distinct" in err

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_flag_cross_validation(self, tmp_path, capsys, scenario_file, command):
        if command == "test":
            argv = ["test", make_dataset(tmp_path / "d.csv"), "--p", "0.5"]
        else:
            argv = ["simulate", "--scenario", scenario_file, "--n", "20", "--reps", "2"]
        code, _, err = run_cli(capsys, *argv, "--method", "ls", "--bandwidth", "0.3")
        assert code == 2
        assert err == "error: --bandwidth applies to --method kde only\n"
        code, _, err = run_cli(capsys, *argv, "--method", "kde", "--sigma-eps", "1.0")
        assert code == 2
        assert err == "error: --sigma-eps applies to --method ls only\n"
        code, _, err = run_cli(capsys, *argv, "--sigma-eps", "wide")
        assert code == 2
        assert err == "error: --sigma-eps must be a number or 'auto', got 'wide'\n"

    def test_flag_errors_before_the_ci_seed_rule(self, capsys, scenario_file, monkeypatch):
        """simulate without --seed under CI gives test_flag_cross_validation's
        flag errors, not the seed rule's."""
        monkeypatch.setenv("CI", "true")
        argv = ["simulate", "--scenario", scenario_file, "--n", "20", "--reps", "2"]
        for flags, line in [
            (["--method", "ls", "--bandwidth", "0.3"],
             "error: --bandwidth applies to --method kde only\n"),
            (["--method", "kde", "--sigma-eps", "1.0"],
             "error: --sigma-eps applies to --method ls only\n"),
            (["--sigma-eps", "wide"],
             "error: --sigma-eps must be a number or 'auto', got 'wide'\n"),
        ]:
            assert run_cli(capsys, *argv, *flags) == (2, "", line)

    def test_multivariate_with_bonferroni(self, tmp_path, capsys):
        path = make_dataset(tmp_path / "d.csv", n=60, rate2=2.5)
        code, out, _ = run_cli(
            capsys, "test", path, "--p", "0.25,0.5", "--bonferroni",
            "--sigma-eps", "2.0", "--json", "-",
        )
        assert code == 0
        payload = json.loads(out)
        joint = payload["results"][0]
        assert joint["dof"] == 2
        assert 0.0 <= joint["p_value"] <= 1.0
        followup = payload["bonferroni"]
        assert len(followup) == 2
        for entry in followup:
            expected = min(1.0, 2.0 * entry["p_value"])
            assert entry["adjusted_p_value"] == pytest.approx(expected, rel=1e-15)

    def test_bonferroni_one_bandwidth_selection_per_arm(self, tmp_path, capsys,
                                                        monkeypatch):
        import survquant.density as density

        calls = []
        select = density._cv_bandwidth

        def counting(*args):
            calls.append(args[0])
            return select(*args)

        monkeypatch.setattr(density, "_cv_bandwidth", counting)
        path = make_dataset(tmp_path / "d.csv", n=80, rate2=2.0)
        code, out, _ = run_cli(
            capsys, "test", path, "--p", "0.25,0.5,0.75", "--bonferroni",
            "--method", "kde", "--json", "-",
        )
        assert code == 0
        assert len(calls) == 2
        assert len(json.loads(out)["bonferroni"]) == 3

    def test_ls_auto_bonferroni_fits_each_arm_once(self, tmp_path, capsys,
                                                   monkeypatch):
        """The automatic sigma, the LS probes and every test read one KM fit
        and one quantile lookup per arm; each arm probes its sigma grid at
        every probability in one _ls_slopes call, and its densities in
        another."""
        import survquant.density as density
        import survquant.survival as survival

        homes = {"fit_kaplan_meier": survival, "_quantiles": survival, "_ls_slopes": density}
        counts = dict.fromkeys(homes, 0)
        for name, home in homes.items():
            original = getattr(home, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("survquant") and \
                        getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        path = make_dataset(tmp_path / "d.csv", n=200, rate2=2.0)
        code, out, _ = run_cli(
            capsys, "test", path, "--p", "0.25,0.5,0.75", "--bonferroni", "--json", "-",
        )
        assert code == 0
        assert json.loads(out)["manifest"]["tuning"]["sigma_eps_mode"] == "auto"
        assert counts == {"fit_kaplan_meier": 2, "_quantiles": 2, "_ls_slopes": 4}

    def test_sigma_auto_records_selections(self, tmp_path, capsys):
        path = make_dataset(tmp_path / "d.csv")
        code, out, _ = run_cli(capsys, "test", path, "--p", "0.5", "--json", "-")
        assert code == 0
        tuning = json.loads(out)["manifest"]["tuning"]
        assert tuning["sigma_eps_mode"] == "auto"
        assert len(tuning["sigma_eps_selections"]) == 2
        assert tuning["sigma_eps"] == max(tuning["sigma_eps_selections"])

    def test_kde_fixed_bandwidth(self, tmp_path, capsys):
        path = make_dataset(tmp_path / "d.csv", rate2=2.0)
        code, out, _ = run_cli(
            capsys, "test", path, "--p", "0.5", "--method", "kde",
            "--bandwidth", "0.4", "--json", "-",
        )
        assert code == 0
        tuning = json.loads(out)["manifest"]["tuning"]
        assert tuning["bandwidth_mode"] == "fixed"
        assert tuning["bandwidth"] == 0.4
        assert tuning["bandwidth_arm1"] == 0.4
        assert tuning["bandwidth_arm2"] == 0.4

    def test_kde_auto_bandwidth(self, tmp_path, capsys):
        path = make_dataset(tmp_path / "d.csv", rate2=2.0)
        code, out, _ = run_cli(
            capsys, "test", path, "--p", "0.5", "--method", "kde", "--json", "-"
        )
        assert code == 0
        tuning = json.loads(out)["manifest"]["tuning"]
        assert tuning["bandwidth_mode"] == "auto"
        assert 0.1 <= tuning["bandwidth_arm1"] <= 1.0
        assert 0.1 <= tuning["bandwidth_arm2"] <= 1.0


class TestFrozenTestOutput:
    """`test --json -` on one 200-per-arm trial of the delayed-effect plan
    (sample_trial, seed 3): statistics and p-values (joint first, then the
    Bonferroni follow-up), the tuning picks and the flags."""

    EDGE = ["arm1:cv-grid-edge", "arm2:cv-grid-edge"]
    RUNS = {
        "ls-auto-j1": (
            ["--p", "0.5"],
            {"method": "ls", "sigma_eps": 2.0, "sigma_eps_mode": "auto",
             "sigma_eps_selections": [2.0, 1.0]},
            [(3.336414276025058, 0.0008486659670612364, [])],
        ),
        "ls-auto-j3-bonferroni": (
            ["--p", "0.25,0.5,0.75", "--bonferroni"],
            {"method": "ls", "sigma_eps": 9.85, "sigma_eps_mode": "auto",
             "sigma_eps_selections": [9.85, 2.0, 5.05, 0.9500000000000001, 1.0,
                                      2.3000000000000003]},
            [(8.66753786750982, 0.034053847742816265, []),
             (0.7942228772462108, 0.4270656925339552, []),
             (1.7869522410145946, 0.07394520794999825, []),
             (2.919800197928646, 0.0035025586824241495, [])],
        ),
        "ls-fixed": (
            ["--p", "0.25,0.75", "--sigma-eps", "0.8", "--seed", "7"],
            {"method": "ls", "sigma_eps": 0.8, "sigma_eps_mode": "fixed"},
            [(12.154520070515007, 0.00229445477326227, [])],
        ),
        "kde-auto-j3-bonferroni": (
            ["--p", "0.25,0.5,0.75", "--bonferroni", "--method", "kde"],
            {"method": "kde", "bandwidth_mode": "auto", "bandwidth_arm1": 0.1,
             "bandwidth_arm2": 0.1},
            [(14.97850352225182, 0.0018351116357032346, EDGE),
             (2.095714163324395, 0.03610755468965419, EDGE),
             (3.356938681497604, 0.0007881058880278909, EDGE),
             (3.391241047568873, 0.0006957687805866401, EDGE)],
        ),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_frozen(self, tmp_path, capsys, name):
        data = sample_trial(scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2,
                                                censoring_rate=0.48), 200, 200, 3)
        lines = ["time,status,group"]
        for group, arm in ((1, data.arm1), (2, data.arm2)):
            lines += [f"{float(t)!r},{int(e)},{group}" for t, e in zip(arm.times, arm.events)]
        path = tmp_path / "trial.csv"
        path.write_text("\n".join(lines) + "\n")
        argv, tuning, expected = self.RUNS[name]
        code, out, err = run_cli(capsys, "test", str(path), *argv, "--json", "-")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["manifest"]["tuning"] == tuning
        rows = payload["results"] + payload.get("bonferroni", [])
        assert len(rows) == len(expected)
        for row, (statistic, p_value, flags) in zip(rows, expected):
            assert row["statistic"] == pytest.approx(statistic, rel=1e-12)
            assert row["p_value"] == pytest.approx(p_value, rel=1e-12)
            assert row["flags"] == flags


class TestFrozenTextViews:
    """The table views of `test` (J=1, and J=3 with its Bonferroni
    follow-up) on TestFrozenTestOutput's trial and of `samplesize` on
    SCENARIO_TEXT, byte for byte; {path} stands for the dataset's path."""

    MANIFEST = (
        '{"command":"test","config":{"alpha":0.05,"bonferroni":%s,"method":"ls","p":%s},'
        '"dataset":{"ignored_columns":[],"path":"{path}","sha256":'
        '"a9035bc587cd0c86478319341594083cb2d95d96b5bddf24a6c374ea4b716aaa"},'
        '"seeds":{"seed":0},"tuning":{"method":"ls","sigma_eps":%s,"sigma_eps_mode":"auto",'
        '"sigma_eps_selections":%s},"version":"0.1.0"}'
    )
    J3 = MANIFEST % ("true", "[0.25,0.5,0.75]", "9.85",
                     "[9.85,2.0,5.05,0.9500000000000001,1.0,2.3000000000000003]")
    RUNS = {
        "test-j1": (
            ["--p", "0.5"],
            "p    delta_hat  statistic  p_value      flags\n"
            "---  ---------  ---------  -----------  -----\n"
            "0.5  0.191967   3.33641    0.000848666\n"
            "\nmanifest: " + MANIFEST % ("false", "[0.5]", "2.0", "[2.0,1.0]") + "\n",
        ),
        "test-j3-bonferroni": (
            ["--p", "0.25,0.5,0.75", "--bonferroni"],
            "statistic  dof  p_value    flags\n"
            "---------  ---  ---------  -----\n"
            "8.66754    3    0.0340538\n"
            "\nmanifest: " + J3 + "\n"
            "\nBonferroni follow-up:\n"
            "p     delta_hat  statistic  p_value     adjusted_p  reject\n"
            "----  ---------  ---------  ----------  ----------  ------\n"
            "0.25  0.0775995  0.794223   0.427066    1           false\n"
            "0.5   0.191967   1.78695    0.0739452   0.221836    false\n"
            "0.75  0.314954   2.9198     0.00350256  0.0105077   true\n"
            "\nmanifest: " + J3 + "\n",
        ),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_test_table(self, tmp_path, capsys, name):
        data = sample_trial(scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2,
                                                censoring_rate=0.48), 200, 200, 3)
        lines = ["time,status,group"]
        for group, arm in ((1, data.arm1), (2, data.arm2)):
            lines += [f"{float(t)!r},{int(e)},{group}" for t, e in zip(arm.times, arm.events)]
        path = tmp_path / "trial.csv"
        path.write_text("\n".join(lines) + "\n")
        argv, expected = self.RUNS[name]
        code, out, err = run_cli(capsys, "test", str(path), *argv)
        assert (code, err) == (0, "")
        assert out == expected.replace("{path}", str(path))

    def test_samplesize_table(self, scenario_file, capsys):
        code, out, err = run_cli(capsys, "samplesize", "--scenario", scenario_file,
                                 "--power", "0.8,0.9")
        assert (code, err) == (0, "")
        assert out == (
            "target_power  per_group_n  total_n  achieved_power\n"
            "------------  -----------  -------  --------------\n"
            "0.8           632          1264     0.800128\n"
            "0.9           846          1692     0.900069\n"
            '\nmanifest: {"command":"samplesize","config":{"alpha":0.05,'
            '"delta":0.10000000000000003,"p":0.5,"scenario":{"censoring_rate":0.48,'
            '"form":"proportional","lambda_a":1.5,"lambda_b":1.9142523574697405,"mu1":0.5},'
            '"targets":[0.8,0.9]},"seeds":{},"tuning":{"method":"closed-form"},'
            '"version":"0.1.0"}\n'
        )


class TestParser:
    """Each subcommand offers exactly these option strings (and test its
    data argument), whichever parser declares them."""

    OPTIONS = {
        "test": ("--alpha --bandwidth --bonferroni --json --method --p --seed --sigma-eps",
                 ["data"]),
        "power": ("--alpha --delta --json --n --p --scenario", []),
        "samplesize": ("--alpha --delta --json --p --power --scenario", []),
        "simulate": ("--alpha --bandwidth --delta --json --method --n --p --reps "
                     "--scenario --seed --sigma-eps --threads --timing", []),
    }

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_option_strings(self, command):
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        actions = subparsers.choices[command]._actions
        options = sorted(s for a in actions for s in a.option_strings
                         if s not in ("-h", "--help"))
        flags, positionals = self.OPTIONS[command]
        assert options == flags.split()
        assert [a.dest for a in actions if not a.option_strings] == positionals

    @pytest.mark.parametrize("text, message", [
        ("abc", "expected comma-separated numbers, got 'abc'"),
        (",", "expected at least one number"),
    ])
    def test_number_list_errors(self, capsys, scenario_file, text, message):
        with pytest.raises(SystemExit) as exit_:
            main(["power", "--scenario", scenario_file, "--delta", text, "--n", "100"])
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f"error: argument --delta: {message}\n")


class TestFarSpan:
    @pytest.mark.parametrize("top", ["1e308", "1e200"])
    def test_kde_on_times_spanning_the_float_range(self, tmp_path, capsys, top):
        # the Fourier frequency count overflows and the pairwise kernel
        # arguments overflow to -inf, whose exp is the correct 0
        times = [0.2 * k for k in range(1, 21)] + [float(top)]
        lines = ["time,status,group"]
        lines += [f"{t!r},1,{g}" for g in (1, 2) for t in times]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "test", str(path), "--p", "0.5",
                                 "--method", "kde", "--json", "-")
        assert (code, err) == (0, "")
        result = json.loads(out)["results"][0]
        assert result["delta_hat"] == 0.0
        assert result["p_value"] == 1.0


class TestTinyBandwidth:
    @pytest.mark.parametrize("p", ["0.5", "0.25,0.5"])
    @pytest.mark.parametrize("bandwidth", ["1e-300", "1e-320"])
    def test_variance_not_positive_exits_3(self, tmp_path, capsys, bandwidth, p):
        # the kernel estimate at an event time overflows, so 1/f^2 and with
        # it the quantile variance are 0
        path = make_dataset(tmp_path / "d.csv")
        code, out, err = run_cli(capsys, "test", path, "--p", p, "--method", "kde",
                                 "--bandwidth", bandwidth)
        assert (code, out) == (3, "")
        assert err == "error: quantile variance is not positive\n"


class TestHugeTimes:
    """Times in a unit so small that the Wald statistic overflows: the
    statistic is inf with no warning, and JSON writes it as a string."""

    @pytest.fixture
    def path(self, tmp_path):
        data = sample_trial(scenario_from_delta(1.5, 0.5, 0.1, t_cut=0.2, censoring_rate=0.48),
                            200, 200, 3)
        lines = ["time,status,group"]
        lines += [f"{float(t) * 1e170!r},{int(e)},{g}"
                  for g, arm in ((1, data.arm1), (2, data.arm2))
                  for t, e in zip(arm.times, arm.events)]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_table(self, path, capsys):
        code, out, err = run_cli(capsys, "test", path, "--p", "0.25,0.5")
        assert (code, err) == (0, "")
        assert out.splitlines()[2].split()[:3] == ["inf", "2", "0"]

    def test_json_is_strict(self, path, capsys):
        code, out, err = run_cli(capsys, "test", path, "--p", "0.25,0.5", "--json", "-")
        assert (code, err) == (0, "")
        result = strict_json(out)["results"][0]
        assert (result["statistic"], result["p_value"]) == ("Infinity", 0.0)


def test_json_writes_non_finite_floats_as_null_and_strings():
    from survquant.cli import _canonical

    text = _canonical({"x": [float("nan"), float("inf"), -np.inf, 1.5]})
    assert text == '{"x":[null,"Infinity","-Infinity",1.5]}'
    assert strict_json(text) == {"x": [None, "Infinity", "-Infinity", 1.5]}


class TestCmdPower:
    def test_csv_output(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--scenario", scenario_file,
            "--delta", "0,0.1", "--n", "50,500",
        )
        assert code == 0
        lines = out.splitlines()
        manifest = manifest_from_csv(out)
        assert manifest["command"] == "power"
        assert lines[1] == "p,delta,n_per_group,power"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        # the null rows print alpha exactly
        null_rows = [r for r in rows if r[1] == "0.0"]
        assert all(r[3] == "0.05" for r in null_rows)
        cell = [r for r in rows if r[1] == "0.1" and r[2] == "500"]
        assert float(cell[0][3]) == pytest.approx(0.702758153366563, rel=1e-12)

    def test_json_payload(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--scenario", scenario_file,
            "--delta", "0.1", "--n", "100,500", "--json", "-",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 2
        summary = payload["manifest"]["config"]["scenario"]
        assert summary["form"] == "proportional"
        # the comparator rate varies with delta, so it stays out of the manifest
        assert "lambda_b" not in summary

    def test_p_flag_overrides_config(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--scenario", scenario_file,
            "--p", "0.25", "--delta", "0.05", "--n", "100", "--json", "-",
        )
        assert code == 0
        assert json.loads(out)["manifest"]["config"]["p"] == 0.25

    def test_missing_p(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("lambda_a = 1.5\n")
        code, _, err = run_cli(
            capsys, "power", "--scenario", str(cfg), "--delta", "0.1", "--n", "100"
        )
        assert code == 2
        assert err == "error: give exactly one of p or p_list\n"

    @pytest.mark.parametrize("command,argv", [
        ("power", ["--delta", "0.1", "--n", "100"]),
        ("samplesize", ["--power", "0.8"]),
    ])
    def test_p_list_plans_jointly(self, tmp_path, capsys, command, argv):
        """A file with only p_list plans jointly, and --p 0.5 plans at that
        one quantile, with the bytes of p = 0.5 in the file."""
        cfg = tmp_path / "s.cfg"
        cfg.write_text("lambda_a = 1.5\ndelta = 0.1\np_list = 0.25, 0.5, 0.75\n")
        code, out, err = run_cli(capsys, command, "--scenario", str(cfg), *argv, "--json", "-")
        assert (code, err) == (0, "")
        assert json.loads(out)["manifest"]["config"]["p"] == [0.25, 0.5, 0.75]
        single = tmp_path / "p.cfg"
        single.write_text("lambda_a = 1.5\ndelta = 0.1\np = 0.5\n")
        flag = run_cli(capsys, command, "--scenario", str(cfg), "--p", "0.5", *argv)
        assert flag[0] == 0
        assert flag == run_cli(capsys, command, "--scenario", str(single), *argv)

    def test_infeasible_delta(self, scenario_file, capsys):
        # the median of the control arm is about 0.46, so a shift of 0.5
        # leaves no positive comparator quantile
        code, _, err = run_cli(
            capsys, "power", "--scenario", scenario_file,
            "--delta", "0.5", "--n", "100",
        )
        assert code == 2
        assert "error:" in err

    def test_saturated_phi_gives_alpha(self, tmp_path, capsys):
        """Far out in a heavily censored tail phi_exponential saturates to
        inf (expm1(50.1 * 30) overflows), the planned variance is inf and
        the power is alpha at any n: exit 0, no message."""
        cfg = tmp_path / "s.cfg"
        cfg.write_text("lambda_a = 0.1\nlambda_cens = 50\n")
        code, out, err = run_cli(
            capsys, "power", "--scenario", str(cfg),
            "--p", "0.95", "--delta", "0.5", "--n", "100,1000000",
        )
        assert code == 0
        assert err == ""
        assert out.splitlines()[2:] == ["0.95,0.5,100,0.05", "0.95,0.5,1000000,0.05"]

    def test_missing_scenario_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "power", "--scenario", str(tmp_path / "nope.cfg"),
            "--delta", "0.1", "--n", "100",
        )
        assert code == 2
        assert "cannot read scenario config" in err


class TestCmdSamplesize:
    def test_reference_cells(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "samplesize", "--scenario", scenario_file,
            "--power", "0.9,0.95", "--json", "-",
        )
        assert code == 0
        payload = json.loads(out)
        rows = payload["results"]
        assert rows[0]["per_group_n"] == 846
        assert rows[1]["per_group_n"] == 1047
        for row in rows:
            assert row["achieved_power"] >= row["target_power"]
            assert row["total_n"] == 2 * row["per_group_n"]

    def test_delta_flag_override(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "samplesize", "--scenario", scenario_file,
            "--delta", "0.2", "--power", "0.9", "--json", "-",
        )
        assert code == 0
        assert json.loads(out)["results"][0]["per_group_n"] == 173

    def test_delayed_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "s2.cfg"
        cfg.write_text(SCENARIO_DELAYED)
        code, out, _ = run_cli(
            capsys, "samplesize", "--scenario", str(cfg),
            "--power", "0.95", "--json", "-",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["per_group_n"] == 901
        assert payload["manifest"]["config"]["scenario"]["form"] == "delayed-effect"

    def test_table_output(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "samplesize", "--scenario", scenario_file, "--power", "0.9"
        )
        assert code == 0
        assert "per_group_n" in out.splitlines()[0]
        assert "846" in out
        manifest = manifest_from_table(out)
        assert manifest["config"]["delta"] == pytest.approx(0.1, abs=1e-12)

    def test_target_at_alpha_rejected(self, scenario_file, capsys):
        code, _, err = run_cli(
            capsys, "samplesize", "--scenario", scenario_file, "--power", "0.05"
        )
        assert code == 2
        assert "target power" in err


class TestOnePlanningRoute:
    """power, samplesize and simulate plan several quantiles through one
    route. A joint power row is power_multivariate on the scenario's Psi
    and quantile differences, bit for bit, and equals simulate's formula
    column for the same file, --delta and n; a joint sample size is
    min_sample_size on the same design, its certificate included; a
    saturated phi exits 3 from all three commands."""

    FORMS = {"proportional": (SCENARIO_TEXT, None), "delayed": (SCENARIO_DELAYED, 0.2)}

    @classmethod
    def design(cls, form, ps, delta):
        """The scenario's quantile differences and Psi, delta at ps[0]."""
        scenario = scenario_from_delta(1.5, ps[0], delta, t_cut=cls.FORMS[form][1],
                                       censoring_rate=0.48)
        return [scenario.quantile_difference(p) for p in ps], scenario_psi(scenario, ps)

    @pytest.fixture(params=sorted(FORMS))
    def form(self, request, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(self.FORMS[request.param][0])
        return request.param, str(path)

    @pytest.mark.parametrize("ps", [(0.5, 0.75), (0.5, 0.75, 0.9)], ids=["J2", "J3"])
    def test_power_row_is_the_joint_formula(self, capsys, form, ps):
        form, path = form
        flag = ",".join(map(str, ps))
        code, out, err = run_cli(capsys, "power", "--scenario", path, "--p", flag,
                                 "--delta", "0.1,0.2", "--n", "50,400", "--json", "-")
        assert (code, err) == (0, "")
        rows = json.loads(out)["results"]
        assert len(rows) == 4
        for row, (delta, n) in zip(rows, [(d, n) for d in (0.1, 0.2) for n in (50, 400)]):
            deltas, psi = self.design(form, ps, delta)
            expected = power_multivariate(PowerSpec(alpha=0.05, deltas=deltas, psi=psi,
                                                    per_group_n=n))
            assert row == {"p": ";".join(map(repr, ps)), "delta": ";".join(map(repr, deltas)),
                           "n_per_group": n, "power": expected}
            code, out, _ = run_cli(capsys, "simulate", "--scenario", path, "--p", flag,
                                   "--delta", str(delta), "--n", str(n), "--reps", "1",
                                   "--seed", "0", "--json", "-")
            assert code == 0
            assert json.loads(out)["results"][0]["formula"] == expected

    @pytest.mark.parametrize("ps", [(0.5, 0.75), (0.5, 0.75, 0.9)], ids=["J2", "J3"])
    def test_samplesize_is_min_sample_size(self, capsys, form, ps):
        form, path = form
        flag = ",".join(map(str, ps))
        code, out, err = run_cli(capsys, "samplesize", "--scenario", path, "--p", flag,
                                 "--power", "0.8,0.9", "--json", "-")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        deltas, psi = self.design(form, ps, 0.1)
        assert payload["manifest"]["config"]["delta"] == deltas
        for row, target in zip(payload["results"], (0.8, 0.9)):
            result = min_sample_size(target, deltas, psi=psi)
            assert row == {"target_power": target, "per_group_n": result.per_group_n,
                           "total_n": result.total_n, "achieved_power": result.achieved_power}
            # the certificate: power's joint rows at n - 1 and n straddle the target
            n = result.per_group_n
            code, out, _ = run_cli(capsys, "power", "--scenario", path, "--p", flag,
                                   "--delta", "0.1", "--n", f"{n - 1},{n}", "--json", "-")
            below, at = [r["power"] for r in json.loads(out)["results"]]
            assert (below, at) == (result.power_at_n_minus_1, result.achieved_power)
            assert below < target <= at

    @pytest.mark.parametrize("argv", [
        ["power", "--delta", "0.5", "--n", "100"],
        ["samplesize", "--power", "0.8"],
        ["simulate", "--n", "50", "--reps", "5", "--seed", "1"],
    ], ids=["power", "samplesize", "simulate"])
    def test_saturated_phi_exits_3(self, tmp_path, capsys, argv):
        """The control quantile at p = 0.95 lies at t = 30, where phi
        saturates to inf: the joint plan's Psi has no noncentrality."""
        cfg = tmp_path / "s.cfg"
        cfg.write_text("lambda_a = 0.1\nlambda_cens = 50\ndelta = 0.5\np_list = 0.95, 0.5\n")
        code, out, err = run_cli(capsys, argv[0], "--scenario", str(cfg), *argv[1:])
        assert (code, out) == (3, "")
        assert err == ("error: psi has an inf or nan entry (a saturated variance factor "
                       "phi), so the power formula has no noncentrality\n")


class TestCmdSimulate:
    def test_smoke_csv(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file,
            "--n", "30", "--reps", "5", "--seed", "1",
        )
        assert code == 0
        manifest = manifest_from_csv(out)
        assert manifest["seeds"]["master_seed"] == 1
        assert manifest["config"]["replications"] == 5
        assert manifest["tuning"]["sigma_eps"] == 5.0
        header = out.splitlines()[1].split(",")
        assert "empirical" in header
        assert "rep_time_mean_s" not in header

    def test_default_sigma_eps_bytes(self, scenario_file, capsys):
        """No --sigma-eps, 'auto' and the default 5.0 print the same bytes."""
        argv = ["simulate", "--scenario", scenario_file, "--n", "30",
                "--reps", "12", "--seed", "3"]
        runs = [run_cli(capsys, *argv, *flag)
                for flag in ([], ["--sigma-eps", "auto"], ["--sigma-eps", "5.0"])]
        assert runs[0][0] == 0
        assert runs[1:] == runs[:1] * 2

    def test_thread_count_byte_identity(self, scenario_file, capsys):
        argv = ["simulate", "--scenario", scenario_file, "--n", "30",
                "--reps", "24", "--seed", "3"]
        _, serial, _ = run_cli(capsys, *argv, "--threads", "1")
        _, pooled, _ = run_cli(capsys, *argv, "--threads", "4")
        assert serial == pooled

    @pytest.mark.parametrize("method", ["ls", "kde"])
    def test_pooled_output_bytes(self, scenario_file, capsys, monkeypatch, method):
        """Workers forced on for every run with more than two blocks: the
        output is the serial run's at any --threads."""
        argv = ["simulate", "--scenario", scenario_file, "--n", "30", "--reps", "24",
                "--seed", "3", "--p", "0.25,0.5", "--method", method]
        _, serial, _ = run_cli(capsys, *argv, "--threads", "1")
        simulate._stop_workers()  # so the first pooled run forks its own
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 1)
        try:
            for threads in ("2", "3", str(simulate._usable_cpus())):
                monkeypatch.setattr(simulate, "_start_s", 0.0)
                assert run_cli(capsys, *argv, "--threads", threads)[1] == serial
        finally:
            simulate._stop_workers()  # they were forked with one-replicate blocks

    def test_threads_env_variable(self, scenario_file, capsys, monkeypatch):
        argv = ["simulate", "--scenario", scenario_file, "--n", "25",
                "--reps", "10", "--seed", "5"]
        _, explicit, _ = run_cli(capsys, *argv, "--threads", "1")
        monkeypatch.setenv("SURVQUANT_THREADS", "4")
        _, from_env, _ = run_cli(capsys, *argv)
        assert from_env == explicit

    def test_n_past_the_largest_array(self, scenario_file, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", scenario_file,
            "--n", "1152921504606846976", "--reps", "1", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: n_per_group=1152921504606846976 is too large")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("probabilities", ["0.5,0.95", "0.5,0.95,0.99"])
    def test_saturated_phi_in_a_joint_plan(self, tmp_path, capsys, probabilities):
        """phi saturates to inf at p = 0.95 and past it (see
        TestCmdPower.test_saturated_phi_gives_alpha), so the planned psi has
        an inf entry and the joint power formula has no noncentrality: exit
        3 with one error line that says so, and no traceback."""
        cfg = tmp_path / "s.cfg"
        cfg.write_text("lambda_a = 0.1\ndelta = 0.5\np = 0.95\nlambda_cens = 50\n")
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(cfg), "--p", probabilities,
            "--n", "50", "--reps", "5", "--seed", "1",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: psi has an inf or nan entry")
        assert err.count("\n") == 1

    def test_out_of_memory(self, scenario_file, capsys, monkeypatch):
        """An n that fits numpy's limits but not the machine: MemoryError is
        one error line and exit 2 (raised here by a stand-in engine)."""
        def exhausted(plan):
            raise MemoryError("Unable to allocate 2.91 TiB for an array")

        monkeypatch.setattr("survquant.simulate.empirical_rejection", exhausted)
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", scenario_file,
            "--n", "99999999999", "--reps", "1", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: out of memory: Unable to allocate 2.91 TiB for an array\n"

    def test_interrupt(self, scenario_file, capsys, monkeypatch):
        """Ctrl-C is one error line and exit 2, not a traceback (raised
        here by a stand-in engine)."""
        def interrupted(plan):
            raise KeyboardInterrupt

        monkeypatch.setattr("survquant.simulate.empirical_rejection", interrupted)
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", scenario_file,
            "--n", "50", "--reps", "10", "--seed", "1",
        )
        assert (code, out, err) == (2, "", "error: interrupted\n")

    def test_zero_shift_plans_equal_arms(self, tmp_path, capsys):
        """At --delta 0 the delayed comparator keeps the control rate, so
        every planned shift is 0 and the formula power is alpha."""
        cfg = tmp_path / "plan.scn"
        cfg.write_text(SCENARIO_DELAYED)
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", str(cfg), "--n", "150", "--reps", "300",
            "--seed", "9", "--p", "0.5,0.6,0.75", "--delta", "0",
        )
        assert code == 0
        row = dict(zip(out.splitlines()[1].split(","), out.splitlines()[2].split(",")))
        assert (row["delta"], row["formula"]) == ("0.0;0.0;0.0", "0.05")
        assert row["empirical"] == "0.023333333333333334"

    def test_unequal_allocation(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SCENARIO_DELAYED + "mu1 = 0.3\n")
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(cfg), "--n", "30", "--reps", "5",
            "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert "needs mu1 = 0.5, got 0.3" in err

    def test_ci_env_requires_seed(self, scenario_file, capsys, monkeypatch):
        monkeypatch.setenv("CI", "true")
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--n", "25",
            "--reps", "2",
        )
        assert code == 2
        assert "--seed is required" in err
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--n", "25",
            "--reps", "2", "--seed", "7",
        )
        assert code == 0

    def test_seed_defaults_to_zero_outside_ci(self, scenario_file, capsys,
                                              monkeypatch):
        monkeypatch.delenv("CI", raising=False)
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--n", "25",
            "--reps", "2",
        )
        assert code == 0
        assert manifest_from_csv(out)["seeds"]["master_seed"] == 0

    def test_timing_columns(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--n", "25",
            "--reps", "3", "--seed", "1", "--timing",
        )
        assert code == 0
        header = out.splitlines()[1].split(",")
        assert header[-2:] == ["rep_time_mean_s", "rep_time_sd_s"]

    def test_json_to_file(self, scenario_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--n", "30",
            "--reps", "5", "--seed", "2", "--json", str(target),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        entry = payload["results"][0]
        assert 0.0 <= entry["empirical"] <= 1.0
        assert entry["used"] + entry["failures"] == 5

    def test_delta_override_to_null(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--n", "25",
            "--reps", "2", "--seed", "1", "--delta", "0",
        )
        assert code == 0
        lines = out.splitlines()
        header = lines[1].split(",")
        row = lines[2].split(",")
        assert row[header.index("formula")] == "0.05"
        assert row[header.index("delta")] == "0.0"

    def test_multivariate_probabilities(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--n", "40",
            "--reps", "4", "--seed", "2", "--p", "0.25,0.5",
        )
        assert code == 0
        row = out.splitlines()[2].split(",")
        assert row[0] == "0.25;0.5"

    def test_kde_arm_with_one_event_is_a_failure(self, tmp_path, capsys):
        """A replicate with an arm that reaches the quantile on fewer than
        2 events cannot select a bandwidth; like a replicate whose
        quantile is unreachable, it counts as failed and the run goes on."""
        path = tmp_path / "s.cfg"
        path.write_text("lambda_a = 1.5\ndelta = 0.1\np = 0.5\nlambda_cens = 3\n")
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--n", "10", "--reps", "40",
            "--seed", "1", "--method", "kde",
        )
        assert (code, err) == (0, "")
        row = dict(zip(out.splitlines()[1].split(","), out.splitlines()[2].split(",")))
        assert int(row["failures"]) > 0
        assert int(row["failures"]) + int(row["used"]) == 40

    def test_kde_cross_flag(self, scenario_file, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--n", "25",
            "--reps", "2", "--seed", "1", "--method", "kde",
            "--sigma-eps", "1.0",
        )
        assert code == 2
        assert "ls only" in err


class TestFrozenSimulateOutput:
    """`simulate` stdout, byte for byte: LS at J=1 on the delayed-effect
    plan and at J=3 on the proportional one, a null plan where some
    replicates fail, and KDE with cross-validated bandwidths at J=1 and
    J=3. Any change to a sampled draw, a fit, a density or a p-value that
    moves a replicate across alpha shows here."""

    RUNS = {
        "ls-j1": (
            SCENARIO_DELAYED, ["--n", "200", "--reps", "800", "--seed", "1"],
            (
                '# manifest: {"command":"simulate","config":{"alpha":0.05,"n_per_group":200,'
                '"p":[0.5],"replications":800,"scenario":{"censoring_rate":0.48,'
                '"form":"delayed-effect","lambda_a":1.5,"lambda_b":2.425365449362177,'
                '"mu1":0.5,"t_cut":0.2}},"seeds":{"master_seed":1},"tuning":{"method":"ls",'
                '"sigma_eps":5.0},"version":"0.1.0"}\n'
                'p,delta,empirical,mc_se,formula,failures,used,replications,flags\n'
                '0.5,0.10000000000000003,0.2425,0.015153124677768609,0.39695892010424877,0,'
                '800,800,\n'
            ),
        ),
        "ls-j3": (
            SCENARIO_TEXT, ["--n", "100", "--reps", "300", "--seed", "2", "--p", "0.25,0.5,0.75"],
            (
                '# manifest: {"command":"simulate","config":{"alpha":0.05,"n_per_group":100,'
                '"p":[0.25,0.5,0.75],"replications":300,"scenario":{"censoring_rate":0.48,'
                '"form":"proportional","lambda_a":1.5,"lambda_b":3.1341996891338173,'
                '"mu1":0.5}},"seeds":{"master_seed":2},"tuning":{"method":"ls",'
                '"sigma_eps":5.0},"version":"0.1.0"}\n'
                'p,delta,empirical,mc_se,formula,failures,used,replications,flags\n'
                '0.25;0.5;0.75,0.1;0.24094208396532094;0.48188416793064187,'
                '0.8333333333333334,0.021516574145596757,0.892392707168792,0,300,300,\n'
            ),
        ),
        "ph-null": (
            SCENARIO_NULL, ["--n", "50", "--reps", "600", "--seed", "0"],
            (
                '# manifest: {"command":"simulate","config":{"alpha":0.05,"n_per_group":50,'
                '"p":[0.75],"replications":600,"scenario":{"censoring_rate":1.0,'
                '"form":"proportional","lambda_a":1.5,"lambda_b":1.5,"mu1":0.5}},'
                '"seeds":{"master_seed":0},"tuning":{"method":"ls","sigma_eps":5.0},'
                '"version":"0.1.0"}\n'
                'p,delta,empirical,mc_se,formula,failures,used,replications,flags\n'
                '0.75,0.0,0.008756567425569177,0.0038988726990119775,0.05,29,571,600,\n'
            ),
        ),
        "kde-j1": (
            SCENARIO_DELAYED, ["--n", "300", "--reps", "100", "--seed", "3", "--method", "kde"],
            (
                '# manifest: {"command":"simulate","config":{"alpha":0.05,"n_per_group":300,'
                '"p":[0.5],"replications":100,"scenario":{"censoring_rate":0.48,'
                '"form":"delayed-effect","lambda_a":1.5,"lambda_b":2.425365449362177,'
                '"mu1":0.5,"t_cut":0.2}},"seeds":{"master_seed":3},'
                '"tuning":{"bandwidth_mode":"auto","method":"kde"},"version":"0.1.0"}\n'
                'p,delta,empirical,mc_se,formula,failures,used,replications,flags\n'
                '0.5,0.10000000000000003,0.6,0.04898979485566356,0.5478456937055887,0,100,'
                '100,\n'
            ),
        ),
        "kde-j3": (
            SCENARIO_TEXT,
            ["--n", "200", "--reps", "60", "--seed", "4", "--method", "kde", "--p", "0.25,0.5,0.75"],
            (
                '# manifest: {"command":"simulate","config":{"alpha":0.05,"n_per_group":200,'
                '"p":[0.25,0.5,0.75],"replications":60,"scenario":{"censoring_rate":0.48,'
                '"form":"proportional","lambda_a":1.5,"lambda_b":3.1341996891338173,'
                '"mu1":0.5}},"seeds":{"master_seed":4},"tuning":{"bandwidth_mode":"auto",'
                '"method":"kde"},"version":"0.1.0"}\n'
                'p,delta,empirical,mc_se,formula,failures,used,replications,flags\n'
                '0.25;0.5;0.75,0.1;0.24094208396532094;0.48188416793064187,1.0,0.0,'
                '0.99679174570886,0,60,60,\n'
            ),
        ),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_frozen(self, tmp_path, capsys, name):
        text, argv, expected = self.RUNS[name]
        path = tmp_path / "plan.scn"
        path.write_text(text)
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(path), *argv)
        assert (code, err) == (0, "")
        assert out == expected


@pytest.mark.skipif(
    shutil.which("survquant") is None, reason="console script not installed"
)
class TestConsoleScript:
    def test_same_output_as_the_module(self, tmp_path, scenario_file):
        """The entry point imports survquant.cli as a module, not as
        __main__, so each command loads its modules there: every command's
        output must be that of `python -m survquant.cli`."""
        env = dict(os.environ, PYTHONPATH=str(Path(survquant.__file__).parents[1]))
        for argv in (
            ["test", make_dataset(tmp_path / "d.csv"), "--p", "0.5,0.75", "--bonferroni"],
            ["power", "--scenario", scenario_file, "--delta", "0.1", "--n", "50"],
            ["samplesize", "--scenario", scenario_file, "--power", "0.8"],
            ["simulate", "--scenario", scenario_file, "--n", "50", "--reps", "5", "--seed", "1"],
        ):
            script, module = (
                subprocess.run(prefix + argv, capture_output=True, text=True, env=env,
                               timeout=120)
                for prefix in (["survquant"], [sys.executable, "-m", "survquant.cli"])
            )
            assert (script.returncode, script.stderr) == (0, ""), argv[0]
            assert "manifest: " in script.stdout, argv[0]
            assert (script.returncode, script.stdout, script.stderr) == (
                module.returncode, module.stdout, module.stderr), argv[0]


class TestClosedStdout:
    def test_closed_pipe_is_one_error_line(self, scenario_file):
        """The read end of stdout is closed before the command starts, so
        its first write fails: one error line and exit 2, no traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(survquant.__file__).parents[1]))
        try:
            result = subprocess.run(
                [sys.executable, "-m", "survquant.cli", "power", "--scenario",
                 scenario_file, "--delta", "0.1", "--n", "500"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr == "error: standard output was closed by its reader\n"


# ---------------------------------------------------------------------------
# the exit-code contract on generated inputs

# Each generated input starts valid and takes a few edits, so that most runs
# get past the first check and the edits reach the statistics.
SPECIAL_TIMES = ["-0", "0", "nan", "inf", "-inf", "1e308", "1e200", "5e-324", "-1", "x"]
# one time unit per dataset: every power of ten a float holds, plus months and days
TIME_SCALES = [10.0 ** k for k in range(-300, 301)] + [12.0, 365.0]


@st.composite
def fuzz_datasets(draw):
    """Dataset bytes: any time unit, ties, all censored, one arm only,
    NaN/inf, -0, 1e308, a byte-order mark, an extra column, bytes that are
    not UTF-8."""
    grid = draw(st.sampled_from([None, 0.5, 0.1]))  # a coarse grid gives ties
    scale = draw(st.sampled_from(TIME_SCALES))
    rows = []
    for group in "12":
        for _ in range(draw(st.integers(8, 30))):
            t = draw(st.floats(0.01, 10.0))
            rows.append([repr((round(t / grid) * grid if grid else t) * scale),
                         draw(st.sampled_from("011")), group])
    header, prefix, bad_byte, extra = "time,status,group", b"", None, False
    for edit in draw(st.lists(st.sampled_from(
        ["special", "censored", "one-arm", "bom", "extra", "not-utf8"]), max_size=2,
    )):
        if edit == "special":
            rows[draw(st.integers(0, len(rows) - 1))][0] = draw(st.sampled_from(SPECIAL_TIMES))
        elif edit == "censored":
            rows = [[t, "0", g] for t, _, g in rows]
        elif edit == "one-arm":
            rows = [[t, s, "1"] for t, s, _ in rows]
        elif edit == "bom":
            prefix = b"\xef\xbb\xbf"
        elif edit == "extra":
            extra = True
        else:
            bad_byte = draw(st.integers(0, len(rows)))
    if extra:
        header += ",note"
        rows = [row + ["x"] for row in rows]
    lines = [header] + [",".join(row) for row in rows]
    if bad_byte is not None:
        lines.insert(bad_byte + 1, "\udcff")
    return prefix + ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


SCENARIO_EDITS = {
    "lambda_a": ["1e-300", "1e300", "0", "-1", "nan", "inf", None],
    "delta": ["0", "-0.1", "1e-12", "10", "inf", None],
    "lambda_b": ["2.0", "0"],
    "t_cut": ["0.2", "0", "5"],
    "p": ["0.25", "0.999999", "1e-9", "1", None],
    "p_list": ["0.25, 0.5", "0.25, 0.5, 0.75", "0.5, 0.5"],
    "lambda_cens": ["0", "50", "1e-300", None],
    "target_censoring": ["0.3", "0.99"],
    "mu1": ["0.3", "1"],
    "colour": ["red"],
}


@st.composite
def fuzz_scenarios(draw):
    """The README's plan with up to two keys set to extreme values, added,
    or dropped (None)."""
    values = {"lambda_a": "1.5", "delta": "0.1", "p": "0.5", "lambda_cens": "0.48"}
    for key in draw(st.lists(st.sampled_from(sorted(SCENARIO_EDITS)), max_size=2)):
        values[key] = draw(st.sampled_from(SCENARIO_EDITS[key]))
    return "".join(f"{k} = {v}\n" for k, v in values.items() if v is not None)


# per flag: the values of a typical run ([] leaves the flag out), then
# extremes that are still syntactically valid
FLAGS = {
    "test": {
        "--p": (["0.5", "0.25,0.5,0.75"], ["0.9", "0.5,0.5", "1e-9"]),
        "--method": ([[], "ls", "kde"], []),
        "--sigma-eps": ([[]], ["auto", "2.0", "1e-160", "1e-300", "1e-320", "1e200", "1e308",
                               "inf", "nan", "0"]),
        "--bandwidth": ([[]], ["auto", "0.3", "1e-300", "1e-320", "1e300", "inf", "nan", "0"]),
        "--alpha": ([[]], ["0", "1", "1e-300"]),
        "--seed": ([[], "5"], ["-1"]),
        "--bonferroni": ([[], None], []),
    },
    "power": {
        "--delta": (["0.1", "0.1,0.3"], ["0", "1e-300", "-0.2", "1e300"]),
        "--n": (["100", "10,1000"], ["0", "1", "1000000000000"]),
        "--p": ([[], "0.5", "0.25,0.5,0.75"], ["0.9", "1e-9", "0.5,0.5"]),
        "--alpha": ([[]], ["1e-300", "0.999999"]),
    },
    "samplesize": {
        "--power": (["0.8", "0.8,0.9"], ["0.05", "1", "0.999999"]),
        "--delta": ([[], "0.1"], ["0", "1e-12", "-0.5", "1e300"]),
        "--p": ([[], "0.5", "0.25,0.5,0.75"], ["0.9", "0.5,0.5"]),
    },
    "simulate": {
        "--n": (["5", "25"], ["1", "2"]),
        "--reps": (["3", "8"], ["0", "1"]),
        "--p": ([[], "0.5", "0.25,0.5,0.75"], ["0.99"]),
        "--delta": ([[]], ["0", "-0.1"]),
        "--method": ([[], "kde"], []),
        "--sigma-eps": ([[]], ["auto", "1e-300", "1e-320", "1e200", "1e308", "inf", "nan"]),
        "--bandwidth": ([[]], ["0.3", "1e-300", "1e-320", "1e300", "inf", "nan"]),
        "--seed": ([[], "1"], ["-1"]),
        "--threads": ([[], "4"], ["0"]),
        "--timing": ([[], None], []),
    },
}


@st.composite
def fuzz_argv(draw, command):
    """argv of one command; the dataset or scenario path is filled in later."""
    flags = FLAGS[command]
    wild = draw(st.lists(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command, "DATA"] if command == "test" else [command, "--scenario", "SCENARIO"]
    for flag, (typical, extreme) in flags.items():
        value = draw(st.sampled_from(typical + extreme if flag in wild else typical))
        if value is None:
            argv.append(flag)  # a switch
        elif value != []:
            argv += [flag, value]
    return argv + draw(st.sampled_from([[], ["--json", "-"]]))


@contextlib.contextmanager
def time_budget(seconds):
    """Raise TimeoutError in the block once seconds of wall time have
    passed, so a call that never returns fails instead of hanging; no
    budget where the platform has no interval timer."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestExitContractFuzz:
    """Any mix of inputs exits 0, 2 or 3 within a time budget; 2 and 3 print
    exactly one error line, and a run with --json - that exits 0 writes
    strict JSON. A traceback or a RuntimeWarning fails the test."""

    @pytest.mark.parametrize("command", ["test", "power", "samplesize", "simulate"])
    @settings(max_examples=75, deadline=None)
    @given(data=st.data())
    def test_exit_contract(self, command, data):
        argv = data.draw(fuzz_argv(command))
        with tempfile.TemporaryDirectory() as tmp:
            if command == "test":
                path = Path(tmp) / "d.csv"
                path.write_bytes(data.draw(fuzz_datasets()))
                argv[argv.index("DATA")] = str(path)
            else:
                path = Path(tmp) / "s.cfg"
                path.write_text(data.draw(fuzz_scenarios()))
                argv[argv.index("SCENARIO")] = str(path)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    time_budget(20):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse
                    code = exc.code
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert len(errors) == (0 if code == 0 else 1), (argv, err.getvalue())
        if code == 0 and "--json" in argv:
            strict_json(out.getvalue())
